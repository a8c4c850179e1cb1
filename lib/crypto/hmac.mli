(** HMAC-SHA256 (RFC 2104). *)

(** [sha256 ~key msg] is the 32-byte HMAC tag. *)
(* lint: public — a PRF output reveals nothing about the key *)
val sha256 : key:string -> string -> string
