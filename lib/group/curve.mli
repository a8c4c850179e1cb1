(** The secp256k1 elliptic-curve group (y^2 = x^3 + 7), with
    Jacobian-coordinate arithmetic. Every base-field operation runs on
    {!Dd_bignum.Fe} and every scalar is a {!Dd_bignum.Sc}: fixed-width
    limbs, fully reduced after every operation, with no branch on a
    value.

    The module owns the group's constants and every operation on its
    points: the generator and the recodings of scalars mod its order.
    There is no context value. The GLV
    endomorphism constants that {!endo_split}, {!msm} and the
    {!endo_table}s rely on are checked once, when
    the module initializes, which raises [Invalid_argument] if they do
    not hold. The second generator H and the comb tables of G and H
    belong to {!Group_ctx}, as module values too; each comb table is
    built on its first use.

    This is the algebraic substrate for the paper's lifted-ElGamal
    option-encoding commitments, Chaum-Pedersen zero-knowledge proofs,
    ElGamal-opening shares, and Schnorr signatures.

    {2 Timing contract}

    Scalar multiplications come in two flavors and callers must pick by
    the secrecy of the scalar, not by speed alone:

    - {b Secret scalars} (signing nonces, VSS shares and evaluation
      points, ElGamal randomness, ZK nonces): use {!mul_base_table} or
      {!mul_base_batch}, on the comb table of a fixed base. Each
      processes one signed digit per table row, a number fixed by the
      group order's bit length, performing one table read and one add
      per row unconditionally — the sequence of group operations does
      not depend on the scalar. There is no secret-scalar path for a
      point without a comb table.
    - The comb tables ({!base_table}) use signed odd digits. A
      scalar's recoding is {!Dd_bignum.Sc} arithmetic, an add and a
      multiplication on the fixed instruction sequence every [Sc]
      operation runs, and each digit is read from it at a position
      fixed by the row, not by the scalar. A digit
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
      {!mul2_endo}, {!endo_split} and {!msm} are the whole
      variable-time surface of this module: faster, but their
      operation count and branching depend on the scalar's value (its
      bit length, wNAF digits and GLV halves). Never pass them a
      secret. On the scalar side, [Sc.bit_length] (which only this
      surface reads) and [Sc.inv_vartime] (the Lagrange denominators'
      inverse, on public trustee indices) are the variable-time
      operations. Every verifier, serial or batch, evaluates its
      equations in a [Group_ctx] accumulator that ends in {!msm}, and inherits
      this rule: verification is for public transcripts only. A
      recurring point has one precomputed table, a
      comb {!base_table}, or an {!endo_table} over GLV halves for a
      signer's key; {!msm} builds its small odd-multiple tables per
      call, in its domain's arena. *)

module Fe = Dd_bignum.Fe
module Sc = Dd_bignum.Sc

(** An element of the group. Values compare equal through {!equal} even
    when their Jacobian representations differ. *)
type point

(** The byte length of an encoded scalar or coordinate (32). *)
val byte_len : int

(** Uniform scalar in [1, order). *)
val random_scalar : Dd_crypto.Drbg.t -> Sc.t

val infinity : point

(** The generator G, one shared value: {!Group_ctx.g} is this point. *)
val generator : point
val is_infinity : point -> bool

(** [to_affine p] is [None] for infinity and [Some (x, y)] otherwise,
    fresh elements the caller owns. *)
val to_affine : point -> (Fe.t * Fe.t) option

(** Normalize a whole array with a single field inversion
    (Montgomery's trick, in {!Dd_bignum.Fe}); element [i] is [None] iff
    [pts.(i)] is infinity. Cost: one inversion plus ~3 field mults per
    point, versus one inversion per point for repeated {!to_affine}. *)
val to_affine_batch : point array -> (Fe.t * Fe.t) option array

val of_affine : Fe.t * Fe.t -> point
(* lint: allow unused-export — test_group checks points land on the curve *)
val on_curve : Fe.t * Fe.t -> bool

(** [add p q] is [p + q]; a [q] stored with Z = 1 ({!is_affine}:
    decoded points, table entries) takes the mixed addition. *)
val add : point -> point -> point
val neg : point -> point
val sub : point -> point -> point

(** [mul_vartime k p] computes [k] dot [p] by width-5 wNAF.
    {b Variable time}: only for public scalars and points (verification
    of signatures, proofs, and other on-the-wire data). *)
val mul_vartime : Sc.t -> point -> point

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
    128 entries). *)
type base_table

(** [make_base_tables ~width pts] builds the tables of every point in
    one batch: each step of the build (the row bases' normalization,
    every tangent and every chord step) shares one field inversion
    across all the tables. [make_base_table ~width p] is a batch of
    one. Raises [Invalid_argument] unless [2 <= width <= 10]. *)
(* lint: allow unused-export — test_group "one batch = one at a time" *)
val make_base_tables : width:int -> point array -> base_table array
val make_base_table : width:int -> point -> base_table

(** A copy of the table's entries,
    [(base_table_rows tbl).(i).(j) = (2j+1) * 2^(w*i) * B]. A table over
    the identity has no rows. *)
(* lint: allow unused-export — test_group table layout checks *)
val base_table_rows : base_table -> point array array

(** [is_affine p] holds iff [p] is finite and stored with Z = 1, the
    form the comb tables' mixed additions rely on. *)
(* lint: allow unused-export — test_core and test_group check normalized points *)
val is_affine : point -> bool

(** [mul_base_table tbl k] is [k * B]. Safe for secret scalars: every
    row does one lookup and one mixed addition unconditionally, the
    first from the identity. *)
(* lint: public — computing in the exponent: k*B reveals k only by breaking DL *)
val mul_base_table : base_table -> Sc.t -> point

(** One job of {!mul_base_batch}: the sum of [k * B] over its
    (table, scalar) terms, e.g. [[ (g, m); (h, r) ]] for [m*G + r*H]. *)
type comb_job = (base_table * Sc.t) list

(** The most jobs per lockstep group of {!mul_base_batch}: [n] jobs run
    in [ceil (n / batch_group)] groups of near-equal size. *)
val batch_group : int

(** [bit_table tbl] is [tbl] for terms whose scalar is a bit: in a
    {!mul_base_batch} job, a term [(bit_table tbl, b)] with [b] 0 or 1
    runs no comb lane. Its base joins the job's sum through the
    complete-addition merge, flagged as the identity when [b = 0], so
    the field operations are the same for either bit. Raises
    [Invalid_argument] from {!mul_base_batch} if [b > 1]. Elsewhere
    ({!mul_base_table}, {!mul2_endo}) it is [tbl]. *)
val bit_table : base_table -> base_table

(** The comb lanes a job runs in {!mul_base_batch}: its terms that are
    not on a {!bit_table}. *)
(* lint: allow unused-export — test_core "part comb counts" *)
val comb_lanes : comb_job -> int

(** [mul_base_batch jobs] evaluates every job, each result affine
    (Z = 1) or the identity. Jobs run in lockstep groups of about
    {!batch_group}: per row, every comb term of every job in the group
    adds its table entry in affine coordinates, on {!Dd_bignum.Fe} values
    held per lane and overwritten in place, and the whole group shares
    one field inversion, so a multiplication costs about six field
    multiplications per row and no per-point inversion. A group of a
    few jobs pays one inversion per row, slower than {!mul_base_table};
    batch hundreds. A {!bit_table} term runs no rows. Safe for secret
    scalars, under the same contract as {!mul_base_table}. *)
(* lint: public — computing in the exponent: k*B reveals k only by breaking DL *)
val mul_base_batch : comb_job array -> point array

(** A verification table over the GLV halves of a public scalar: a
    width-4 comb of 32 rows, which cover 128 bits, where a
    {!base_table} of width 4 needs 64 rows for 256. Next to each entry
    [(x, y)] it stores the entry's image under the endomorphism,
    [(beta x, y)], which is [lambda] times the entry, so reading either
    costs no multiplication. Per-signer verification tables, built
    during cast set-up, are these. {b Variable time}: public scalars
    only. *)
type endo_table

(** [make_endo_tables pts] builds the tables of every point in one
    batch, as {!make_base_tables} does. *)
val make_endo_tables : point array -> endo_table array

(** [endo_split k] is the GLV decomposition [k = k1 + k2 * lambda]
    (mod n), each half a sign (true for negative) and a magnitude:
    both are below [2^128] (the bound is derived at [endo_bits] in
    curve.ml). Variable time: public scalars only. *)
val endo_split : Sc.t -> (bool * Sc.t) * (bool * Sc.t)

(** [mul2_endo table u tbl (k1, k2)] is [u * B + k1 * P + k2 * lambda * P],
    B the fixed base behind [table] and P the one behind [tbl], each
    half as from {!endo_split}: the verifier's kernel [s*G + e*PK] with
    [e]'s halves. All of it goes into one accumulator by mixed
    additions: one per row of [table], one per row of [tbl] per nonzero
    half, two more at most for even halves, and no doublings. Raises
    [Invalid_argument] when a half has more bits than the rows cover
    (128), which {!endo_split} never yields. {b Variable
    time}: public inputs only. *)
val mul2_endo :
  base_table -> Sc.t -> endo_table -> (bool * Sc.t) * (bool * Sc.t) -> point

(** [msm pairs] is the multi-scalar multiplication
    [sum_i k_i * P_i]. Zero scalars and infinity points are skipped;
    the algorithm is chosen from the surviving batch size: joint
    width-5 wNAF Strauss (one shared doubling chain, per-point
    odd-multiple tables built per call and batch-normalized so digit
    adds are mixed adds) for small batches, bucketed Pippenger above
    256 points with the window width derived from [n]. [?window]
    forces the Pippenger path with that width (used by differential
    tests to cover both paths at any size). Strauss splits a
    full-width scalar by {!endo_split}; a scalar of one or two bits
    is added directly. This is the kernel behind every verifier, which
    folds the terms of a fixed base into one coefficient before calling
    it (G and H go to their comb tables instead,
    [Group_ctx.acc_check]). {b Variable time}: public scalars and
    points only.

    {b Memory.} Both algorithms work in one arena per domain
    ([Domain.DLS]): flat arrays of field limbs, indices and wNAF
    digits, never a caller's point. It grows to the largest call and
    stays at that size, and each call overwrites it, so [msm]
    allocates per call (its GLV splits and its result), not per term;
    distinct domains may call it concurrently. *)
val msm : ?window:int -> (Sc.t * point) array -> point

val equal : point -> point -> bool

(** Uncompressed encoding: ["\x00"] for infinity, [0x04 || X || Y]
    otherwise. [decode] validates curve membership and returns [None]
    on malformed or off-curve input. *)
val encode : point -> string
val decode : string -> point option

(** [encode_affine (to_affine p)] is [encode p]: the encoding from
    affine coordinates already at hand, e.g. from {!to_affine_batch}. *)
val encode_affine : (Fe.t * Fe.t) option -> string

(** Compressed encoding: [0x02/0x03 || X] (33 bytes),
    ["\x00"] for infinity. [decode_compressed] validates and recovers
    the y coordinate by its parity bit. *)
val encode_compressed : point -> string
val decode_compressed : string -> point option

(** Derive a point with unknown discrete log from a domain-separation
    label (try-and-increment). *)
val hash_to_point : string -> point

(** Hash byte-string parts to a scalar mod the group order. *)
val hash_to_scalar : string list -> Sc.t
