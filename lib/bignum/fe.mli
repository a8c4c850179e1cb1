(** Fixed-width field elements for secp256k1's prime
    p = 2^256 - 2^32 - 977.

    An element is ten 26-bit limbs in a caller-owned [int array], kept
    fully reduced. The arithmetic writes into a destination given first,
    which may alias any operand. [mul], [sqr], [add], [sub], [neg] and
    [select] allocate nothing, use no [Domain.DLS] scratch and have no
    branch on a value: their limb loops, carry chains and the final
    conditional subtraction of p (a mask select) run the same for every
    input. Reduction folds 2^260 = 2^36 + 15632 and then
    2^256 = 2^32 + 977.

    The module holds no mutable state of its own: the prime and its
    limbs are module constants, and every element belongs to its
    caller. An element stands for the same residue whatever produced
    it, so the entry points are taint sources for R7: a secret's limbs
    are as secret as the secret. *)

(** An element: ten 26-bit limbs, least significant first. *)
type t = int array

(** A fresh element holding zero. *)
val make : unit -> t

(** [of_bytes s] is the big-endian value of [s] (at most 32 bytes)
    mod p, as a fresh element. [to_bytes x] is its 32-byte big-endian
    encoding, so [to_bytes (of_bytes s) = s] exactly when [s] is 32
    bytes below p: the point codecs' coordinate check. *)
(* lint: secret *)
val of_bytes : string -> t
val to_bytes : t -> string

(** [set dst src] copies [src]'s limbs into [dst]. *)
val set : t -> t -> unit

val set_one : t -> unit

(** [pack x buf off] stores [x] in the five words [buf.(off .. off + 4)],
    two limbs per word, for long-lived copies such as the comb tables;
    [unpack buf off dst] reads it back. *)
(* lint: secret *)
val pack : t -> int array -> int -> unit
val unpack : int array -> int -> t -> unit

(** [mul dst a b]: [dst := a * b mod p]. *)
(* lint: secret *)
val mul : t -> t -> t -> unit

(** [sqr dst a]: [dst := a^2 mod p], 55 limb products instead of 100. *)
(* lint: secret *)
val sqr : t -> t -> unit

(* lint: secret *)
val add : t -> t -> t -> unit

(* lint: secret *)
val sub : t -> t -> t -> unit

(* lint: secret *)
val neg : t -> t -> unit

(** [select dst c a b]: [dst := a] if [c = 1], [b] if [c = 0], by masks. *)
(* lint: secret *)
val select : t -> int -> t -> t -> unit

(** Whether an element is zero; the limbs are or-ed together first, so
    the scan has no early exit. *)
val is_zero : t -> bool
val equal : t -> t -> bool

(** [inv dst a]: [dst := a^(p-2)], the inverse of a nonzero [a] (zero
    maps to zero), by a fixed-window square-and-multiply chain over the
    public exponent. *)
(* lint: secret *)
val inv : t -> t -> unit

(** [sqrt dst a] writes [a^((p+1)/4)] into [dst] and tells whether it
    is a square root of [a] (p = 3 mod 4). *)
(* lint: secret *)
val sqrt : t -> t -> bool
