(** AES-128 (FIPS 197) and CBC mode with PKCS#7 padding.

    This is the [[vote-code]]{_msk} primitive of the paper: the EA
    encrypts every vote code in the BB initialization data under the
    master key [msk] with AES-128-CBC and a fresh random IV. *)

type key

(** Expand a 16-byte key into its round-key schedule. *)
val expand_key : string -> key

(** Encrypt one 16-byte block. *)
val encrypt_block : key -> string -> string

(** [cbc_encrypt ~key ~iv msg] PKCS#7-pads [msg] and encrypts it;
    [key] is the 16-byte raw key, [iv] the 16-byte initialization
    vector. The IV is not prepended; callers carry it alongside. *)
(* lint: public — ciphertext is publishable by design (IND-CPA) *)
val cbc_encrypt : key:string -> iv:string -> string -> string

(** Inverse of {!cbc_encrypt}. Raises [Invalid_argument] on corrupt
    length or padding. *)
val cbc_decrypt : key:string -> iv:string -> string -> string
