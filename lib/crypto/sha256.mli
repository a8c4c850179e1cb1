(** SHA-256 (FIPS 180-4).

    Domain-safe: the compression function's message-schedule scratch is
    domain-local ([Domain.DLS]), so distinct domains may hash
    concurrently. *)

(** One-shot digest of a string. *)
(* lint: public — one-way: a digest does not reveal its preimage *)
val digest : string -> string

(** One-shot digest of the concatenation of the given parts. *)
(* lint: public — one-way: a digest does not reveal its preimage *)
val digest_list : string list -> string

(** Lowercase hex of an arbitrary byte string (test/debug helper). *)
val hex_of_string : string -> string
