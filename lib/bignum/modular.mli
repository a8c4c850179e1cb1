(** Modular arithmetic over a fixed modulus: Barrett reduction for every
    product, and an extended-Euclid inverse.

    [create] precomputes the Barrett constant once; create a [ctx] once
    per modulus and reuse it for every operation. In the protocol this
    is the curve-order (scalar) field; the curves' base fields do not
    run here, the group computes them on fixed-width limbs ([Fe]). A
    [ctx] is immutable and holds no scratch, so any number of domains
    may use the same context concurrently.

    All binary operations expect reduced residues (in [0, modulus));
    [reduce] brings arbitrary naturals into range. *)

type ctx

(** [create m] builds a context for modulus [m >= 2]. Raises
    [Invalid_argument] otherwise. *)
val create : Nat.t -> ctx

val modulus : ctx -> Nat.t

(** Reduce an arbitrary natural modulo the modulus (Barrett for any
    product of two residues, long division beyond that). *)
val reduce : ctx -> Nat.t -> Nat.t

val add : ctx -> Nat.t -> Nat.t -> Nat.t
val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t

(** [sqr ctx a] is [mul ctx a a], squaring through [Nat.sqr]. *)
(* lint: allow unused-export — reference in test_bignum "Barrett reduce = rem" *)
val sqr : ctx -> Nat.t -> Nat.t

(** [pow ctx b e] is [b^e mod m] by square-and-multiply. *)
(* lint: allow unused-export — reference in test_bignum "Fe inv/sqrt = Barrett pow" *)
val pow : ctx -> Nat.t -> Nat.t -> Nat.t

(** Multiplicative inverse by extended Euclid, for any modulus. Raises
    [Division_by_zero] on zero or non-invertible arguments.

    {b Variable time, public inputs only.} The number of Euclid steps
    and every step's cost depend on the argument, so its running time
    leaks it. Lint rule R7 ([secret-taint], docs/INVARIANTS.md) reports
    any secret that reaches this function. *)
val inv_vartime : ctx -> Nat.t -> Nat.t

val of_int : ctx -> int -> Nat.t

(** Interpret a big-endian byte string as a residue. *)
val of_bytes_be : ctx -> string -> Nat.t
