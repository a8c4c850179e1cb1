(** Modular arithmetic over a fixed modulus, with a reduction strategy
    selected at [create] time.

    The two curve field primes the system uses multiply through {!Fe}'s
    fixed-width limbs — pseudo-Mersenne folding for secp256k1's
    [p = 2^256 - 2^32 - 977] and the FIPS 186-4 word-sliding reduction
    for NIST P-256 — converting the operands in and the product out on
    every call; code that chains many field operations uses {!Fe}
    directly. Any other odd modulus (notably both
    curve orders) gets a Montgomery domain: products are reduced by
    absorbing one quotient digit per 31-bit half-limb instead of by
    Barrett's double multiplication, and [pow]/[inv] run their whole
    square-and-multiply chain inside the domain. Even or oversized
    moduli — and every modulus under [~fast:false] — fall back to
    Barrett reduction. A [ctx] captures the modulus plus the precomputed
    constants; create it once and reuse it for every operation.

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
    instead. When [fast] is [true] (the default) {!Fe} is selected for
    the two curve field primes and a Montgomery domain
    for other odd moduli; [~fast:false] forces Barrett everywhere — the
    reference the differential tests and the seed-baseline benchmarks
    compare against. *)
val create : ?prime:bool -> ?fast:bool -> Nat.t -> ctx

val modulus : ctx -> Nat.t

(** Which reduction strategy [create] selected: ["barrett"],
    ["pseudo-mersenne-secp256k1"], ["word-sliding-p256"], or
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

(** {2 Explicit Montgomery domain}

    Available when the modulus is odd, at most 1023 bits, and the
    context was created with [~fast:true] (the default) — this includes
    both curve fields and both curve orders. The domain image of a
    residue [x] is [x * R mod m] with [R = 2^(31 * ceil(bits / 31))];
    [mul_mont]/[sqr_mont] keep operands in that form so chained
    operations pay one REDC each instead of a full enter/exit pair.
    The standard [mul]/[sqr]/[pow] above already use the domain
    internally; this API is for callers that batch conversions.

    The functions below raise [Invalid_argument] when the context has
    no Montgomery domain ([has_montgomery ctx = false]).

    The domain form of a residue is just a re-encoding (multiplication
    by a public constant), so a secret residue's domain image is
    equally secret: the entry points are annotated as taint sources so
    R7 tracks any flow of domain values into comparison, wire, or
    vartime sinks conservatively. *)

(* lint: public — a capability flag: reveals only the modulus shape *)
val has_montgomery : ctx -> bool

(** [to_mont ctx x] is [x * R mod m] (domain entry). *)
(* lint: secret *)
val to_mont : ctx -> Nat.t -> Nat.t

(** [of_mont ctx x] is [x * R^-1 mod m] (domain exit);
    [of_mont (to_mont x) = reduce x]. *)
(* lint: secret *)
val of_mont : ctx -> Nat.t -> Nat.t

(** [mul_mont ctx x y] is [x * y * R^-1 mod m]: the product of two
    domain images, still in the domain. *)
(* lint: secret *)
val mul_mont : ctx -> Nat.t -> Nat.t -> Nat.t

(** [sqr_mont ctx x] is [x^2 * R^-1 mod m] through the dedicated
    squaring kernel. *)
(* lint: secret *)
val sqr_mont : ctx -> Nat.t -> Nat.t
