(** Fixed-width scalars modulo secp256k1's group order
    n = 2^256 - 0x14551231950b75fc4402da1732fc9bebf: every value mod n
    in the protocol (keys, nonces, commitment randomness, proof
    challenges and responses, Shamir shares, batch weights, GLV halves).

    A scalar is ten 26-bit limbs, fully reduced, and immutable: every
    operation returns a fresh value, so structural equality is
    numerical equality. [add], [sub], [neg] and [mul] run one fixed
    instruction sequence whatever their inputs (the same limb loops,
    carry chains and mask selects, and the same allocation), and there
    is no context value: the modulus and its folding constants are
    module constants. *)

type t

val zero : t
val one : t

(** [of_int v] for [0 <= v < 2^52], and back: [to_int] raises
    [Invalid_argument] on a value of more than 52 bits, as [of_int]
    does outside its range. *)
val of_int : int -> t
val to_int : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** Whether a scalar is zero, or two are equal: the limbs are or-ed
    together first, so the scan has no early exit. *)
val is_zero : t -> bool
val equal : t -> t -> bool

(** The multiplicative inverse; raises [Division_by_zero] on zero.

    {b Variable time, public inputs only.} A value or its negation
    below 2^32 (a Lagrange denominator over trustee indices) takes an
    exact division, a few hundred nanoseconds; anything else takes
    Fermat's 256-squaring chain, so the running time tells the two
    apart. Lint rule R7 ([secret-taint], docs/INVARIANTS.md) reports
    any secret that reaches this function. *)
val inv_vartime : t -> t

(** [of_bytes s] is the big-endian value of [s] when [s] has at most
    32 bytes and the value is below n; [None] otherwise. For scalars
    read from outside the program: the group law reduces mod n, so a
    non-canonical twin would act like its canonical value. *)
val of_bytes : string -> t option

(** [of_bytes_mod s] is the big-endian value of [s] mod n, for [s] of
    at most 64 bytes (hash digests, wide DRBG draws); raises
    [Invalid_argument] on longer input. *)
val of_bytes_mod : string -> t

(** The 32-byte big-endian encoding, and the shortest one (at least
    one byte: zero is ["\x00"]). *)
val to_bytes : t -> string
val to_bytes_trimmed : t -> string

(** {2 Recodings}

    Bit access for {!Dd_group.Curve}'s comb digits, wNAF and MSM
    windows and its GLV split. *)

(** [bits k i len] is bits [i .. i + len - 1] of [k] ([len <= 26]),
    zeros past the top. It reads limbs at positions fixed by [i] and
    [len], not by [k]. *)
val bits : t -> int -> int -> int

(** The number of significant bits. {b Variable time}: it scans down
    to the top nonzero limb. *)
val bit_length : t -> int

(** [mul_shift a b s] is [a * b / 2^s] rounded to nearest (the
    product taken over the integers, not mod n), for [s >= 256]: the
    GLV split's projection, as libsecp256k1's [scalar_mul_shift_var]. *)
val mul_shift : t -> t -> int -> t
