(** The secp256k1 elliptic-curve group (y^2 = x^3 + 7), with
    Jacobian-coordinate arithmetic. Every base-field operation runs on
    {!Dd_bignum.Fe}: fixed-width limbs, fully reduced after every
    operation, with no branch on a value.

    This is the algebraic substrate for the paper's lifted-ElGamal
    option-encoding commitments, Chaum-Pedersen zero-knowledge proofs,
    ElGamal-opening VSS, and Schnorr signatures.

    {2 Timing contract}

    Scalar multiplications come in two flavors and callers must pick by
    the secrecy of the scalar, not by speed alone:

    - {b Secret scalars} (signing nonces, VSS shares and evaluation
      points, ElGamal randomness): use {!mul}, {!mul_base_table} or
      {!mul_base_batch}. Each processes a fixed number of windows
      determined by the group order's bit length, performing one table
      lookup and one add per window unconditionally — the sequence of
      group operations does not depend on the scalar.
    - What {!mul} guarantees, exactly: 4-bit windows, as many as the
      order has nibbles; per window four doublings, one read of a
      16-entry Jacobian table indexed by the window's digit, and one
      add; every field operation on {!Dd_bignum.Fe}. It is not fully
      constant-time: the digit is an array index, and the add takes a
      shortcut when an operand is the identity (the accumulator before
      the first nonzero window, the entry of a zero digit) or when the
      operands are equal. Doubling needs no case: the identity doubles
      to Z = 0 through the formula.
    - The comb tables ({!base_table}) use signed odd digits. A digit
      picks its entry by index arithmetic and its sign by a mask select
      between y and -y ([Fe.select]), with no branch on the digit.
      Every entry is finite, and the recoding bounds the accumulator so
      that no add but the last one of a comb can meet the equal or
      opposite point case (the proof is at [base_table] in curve.ml).
      The first row's add always starts from the identity. The last add
      is the mixed addition in {!mul_base_table}, whose equal case falls
      back to doubling and whose opposite case yields Z = 0 through the
      formula, and a complete affine addition in {!mul_base_batch},
      which runs the same field operations for every lane and only
      selects among the results by masks; that is also how the batch
      merges the terms of a job.
    - {b Public data} (signature verification, proof verification,
      checking commitments already on the wire): {!mul_vartime},
      {!mul2} and {!msm} are substantially faster but their operation
      count and branching depend on the scalar's value. Never pass
      them a secret. The randomized batch verifiers built on {!msm}
      ([Schnorr.verify_batch], [Chaum_pedersen.verify_batch], the
      commitment/VSS batch openings) inherit this rule: batch
      verification is for public transcripts only. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type t

(** An element of the group. Values compare equal through {!equal} even
    when their Jacobian representations differ. *)
type point

(** [create ()] builds the group context: the scalar field, the
    generator and its table cache. It checks the GLV endomorphism
    constants that {!msm} relies on and raises [Invalid_argument] if
    they do not hold. *)
val create : unit -> t

(** Modular context for Z_n, n the group order. *)
val scalar_field : t -> Modular.ctx

val order : t -> Nat.t
val byte_len : t -> int

val infinity : point
val generator : t -> point
val is_infinity : point -> bool

(** [to_affine t p] is [None] for infinity and [Some (x, y)] otherwise. *)
val to_affine : t -> point -> (Nat.t * Nat.t) option

(** Normalize a whole array with a single field inversion
    (Montgomery's trick, in {!Dd_bignum.Fe}); element [i] is [None] iff
    [pts.(i)] is infinity. Cost: one inversion plus ~3 field mults per
    point, versus one inversion per point for repeated {!to_affine}. *)
val to_affine_batch : t -> point array -> (Nat.t * Nat.t) option array

val of_affine : t -> Nat.t * Nat.t -> point
val on_curve : t -> Nat.t * Nat.t -> bool

(** [add t p q] is [p + q]; a [q] stored with Z = 1 ({!is_affine}:
    decoded points, table entries) takes the mixed addition. *)
val add : t -> point -> point -> point
val double : t -> point -> point
val neg : t -> point -> point
val sub : t -> point -> point -> point

(** [mul t k p] is [k] dot [p]; [k] is reduced mod the group order.
    Fixed 4-bit windows with a scalar-independent operation sequence —
    safe for secret scalars (see the timing contract above). *)
(* lint: public — computing in the exponent: k*P reveals k only by breaking DL *)
val mul : t -> Nat.t -> point -> point
val mul_int : t -> int -> point -> point

(** [mul_vartime t k p] computes [k] dot [p] by width-5 wNAF.
    {b Variable time}: only for public scalars and points (verification
    of signatures, proofs, and other on-the-wire data). *)
val mul_vartime : t -> Nat.t -> point -> point

(** Precomputed signed-odd comb table for a fixed base B, of window
    width w: row i (of [ceil (bits n / w)]) holds the odd multiples
    [(2j+1) * 2^(w*i) * B] for [j = 0 .. 2^(w-1) - 1], every entry
    finite and affine, so fixed-base multiplication needs no doublings
    and every table add is a mixed addition. Entries are stored once, as
    {!Dd_bignum.Fe} limbs packed two per word (about 330 KB for a width-8
    table), and every reader unpacks the entries it reads. A scalar
    is recoded into one signed odd digit per row. The build works in
    affine coordinates across all rows at once, one shared field
    inversion per step. The group generators use width 8 (32 rows of
    128 entries); per-signer verification tables, built during cast
    set-up, width 4. *)
type base_table
val make_base_table : t -> width:int -> point -> base_table

(** A copy of the table's entries,
    [(base_table_rows tbl).(i).(j) = (2j+1) * 2^(w*i) * B]. A table over
    the identity has no rows. *)
val base_table_rows : base_table -> point array array

(** [is_affine p] holds iff [p] is finite and stored with Z = 1, the
    form the comb tables' mixed additions rely on. *)
val is_affine : point -> bool

(** [mul_base_table t tbl k] is [k * B]. Safe for secret scalars: every
    row does one lookup and one mixed addition unconditionally, the
    first from the identity. *)
(* lint: public — computing in the exponent: k*B reveals k only by breaking DL *)
val mul_base_table : t -> base_table -> Nat.t -> point

(** One job of {!mul_base_batch}: the sum of [k * B] over its
    (table, scalar) terms, e.g. [[ (g, m); (h, r) ]] for [m*G + r*H]. *)
type comb_job = (base_table * Nat.t) list

(** The most jobs per lockstep group of {!mul_base_batch}: [n] jobs run
    in [ceil (n / batch_group)] groups of near-equal size. *)
val batch_group : int

(** [mul_base_batch t jobs] evaluates every job, each result affine
    (Z = 1) or the identity. Jobs run in lockstep groups of about
    {!batch_group}: per row, every term of every job in the group adds
    its table entry in affine coordinates, on {!Dd_bignum.Fe} values
    held per lane and overwritten in place, and the whole group shares
    one field inversion, so a multiplication costs about six field
    multiplications per row and no per-point inversion. A group of a
    few jobs pays one inversion per row, slower than {!mul_base_table};
    batch hundreds. Safe for secret scalars, under the same contract as
    {!mul_base_table}. *)
(* lint: public — computing in the exponent: k*B reveals k only by breaking DL *)
val mul_base_batch : t -> comb_job array -> point array

(** [mul2 t table u v p] is [u*B + v*p] (B the fixed base behind
    [table]) by Strauss-Shamir: the wNAF chain for [v*p] and the comb's
    mixed adds for [u*B] share one accumulator. {b Variable time}:
    public inputs only — this is the verifier's kernel ([s*G + e*PK]). *)
val mul2 : t -> base_table -> Nat.t -> Nat.t -> point -> point

(** [msm t pairs] is the multi-scalar multiplication
    [sum_i k_i * P_i]. Zero scalars and infinity points are skipped;
    the algorithm is chosen from the surviving batch size: joint
    width-5 wNAF Strauss (one shared doubling chain, per-point
    odd-multiple tables batch-normalized so digit adds are mixed adds)
    for small batches, bucketed Pippenger above ~256 points with the
    window width derived from [n]. [?window] forces the Pippenger path
    with that width (used by differential tests to cover both paths at
    any size). This is the kernel behind the randomized batch
    verifiers. {b Variable time}: public scalars and points only. *)
val msm : ?window:int -> t -> (Nat.t * point) array -> point

(** Wide precomputed odd-multiple tables (width 8, and their GLV
    phi-images) for a point that recurs
    across many msm calls — the generator gets one automatically, and
    long-lived verification keys are worth one: a batch verifier checks
    every certificate against the same signer set, so the table build
    amortizes exactly like the serial path's comb tables. The identity
    precomputes to an empty table that [msm_pre] skips. *)
type precomp
val precompute : t -> point -> precomp

(** The affine-normalized base point behind a precomputed table —
    callers that also need the point itself (e.g. to hash its canonical
    encoding) can reuse the normalization paid at build time. *)
val precomp_point : precomp -> point

(** [msm_pre t pre pairs] is [msm] over the concatenation of both term
    lists, with the [pre] terms walking their precomputed tables
    instead of per-call ones (wider windows, no table build or
    normalization cost). Falls back to flattening the precomputed
    terms into plain pairs on the Pippenger path. {b Variable time}:
    public scalars and points only. *)
val msm_pre : t -> (Nat.t * precomp) array -> (Nat.t * point) array -> point

val equal : t -> point -> point -> bool

(** Uncompressed encoding: ["\x00"] for infinity, [0x04 || X || Y]
    otherwise. [decode] validates curve membership and returns [None]
    on malformed or off-curve input. *)
val encode : t -> point -> string
val decode : t -> string -> point option

(** Square root in F_p by {!Dd_bignum.Fe.sqrt} (p = 3 mod 4); [None]
    for non-residues. *)
val field_sqrt : t -> Nat.t -> Nat.t option

(** Compressed encoding: [0x02/0x03 || X] (33 bytes),
    ["\x00"] for infinity. [decode_compressed] validates and recovers
    the y coordinate by its parity bit. *)
val encode_compressed : t -> point -> string
val decode_compressed : t -> string -> point option

(** Derive a point with unknown discrete log from a domain-separation
    label (try-and-increment). *)
val hash_to_point : t -> string -> point

(** Hash byte-string parts to a scalar mod the group order. *)
val hash_to_scalar : t -> string list -> Nat.t
