(** Modular arithmetic over a fixed modulus, with a reduction strategy
    selected at [create] time.

    Any odd modulus of at most 1023 bits (notably both curve orders)
    gets a Montgomery domain: products are reduced by absorbing one
    quotient digit per 31-bit half-limb instead of by Barrett's double
    multiplication, and [pow]/[inv] run their whole square-and-multiply
    chain inside the domain. Even or oversized moduli — and every
    modulus under [~fast:false] — fall back to Barrett reduction. A
    [ctx] captures the modulus plus the precomputed constants; create it
    once and reuse it for every operation. The curves' base fields do
    not run here: the group computes them on fixed-width limbs.

    The Montgomery paths' scratch buffers are domain-local ([Domain.DLS]),
    so a [ctx] is immutable shared data: any number of domains may use
    the same context concurrently, each borrowing its own domain's
    scratch per call.

    All binary operations expect reduced residues (in [0, modulus));
    [reduce] and [of_nat] bring arbitrary naturals into range. *)

type ctx

(** [create ?prime ?fast m] builds a context for modulus [m >= 2]. When
    [prime] is [true] (the default), [inv] uses Fermat's little theorem;
    pass [~prime:false] for composite moduli to use extended Euclid
    instead. When [fast] is [true] (the default) odd moduli get a
    Montgomery domain; [~fast:false] forces Barrett everywhere — the
    reference the differential tests and the seed-baseline benchmarks
    compare against. *)
val create : ?prime:bool -> ?fast:bool -> Nat.t -> ctx

val modulus : ctx -> Nat.t

(** Which reduction strategy [create] selected: ["barrett"] or
    ["montgomery"]. *)
val reduction_name : ctx -> string

(** Reduce an arbitrary natural modulo the modulus (Barrett for any
    product of two residues, long division beyond that). *)
val reduce : ctx -> Nat.t -> Nat.t

val add : ctx -> Nat.t -> Nat.t -> Nat.t
val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val neg : ctx -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t

(** [sqr ctx a] is [mul ctx a a] through a dedicated squaring kernel
    (cross products computed once and doubled). *)
val sqr : ctx -> Nat.t -> Nat.t

val double : ctx -> Nat.t -> Nat.t

(** [pow ctx b e] is [b^e mod m] by square-and-multiply; when the
    context has a Montgomery domain the chain enters the domain once
    and exits once. *)
val pow : ctx -> Nat.t -> Nat.t -> Nat.t

(** Multiplicative inverse — Montgomery-backed Fermat for primes with a
    domain, extended Euclid otherwise. Raises [Division_by_zero] on
    zero or non-invertible arguments. *)
val inv : ctx -> Nat.t -> Nat.t

val of_nat : ctx -> Nat.t -> Nat.t
val of_int : ctx -> int -> Nat.t

(** Interpret a big-endian byte string as a residue. *)
val of_bytes_be : ctx -> string -> Nat.t
