(** The secp256k1 elliptic-curve group (y^2 = x^3 + 7), with
    Jacobian-coordinate arithmetic. Every base-field operation runs on
    {!Dd_bignum.Fe}: fixed-width limbs, fully reduced after every
    operation, with no branch on a value.

    The module owns the group's constants and every operation on its
    points: the order, the scalar field and the generator. There is no
    context value. The GLV
    endomorphism constants that {!msm} relies on are checked once, when
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
      ([Schnorr.verify_batch], [Ballot_proof.verify_batch], the
      commitment batch openings) inherit this rule: batch
      verification is for public transcripts only. A recurring point
      has one precomputed table, a comb {!base_table}; {!msm} builds
      its small odd-multiple tables per call. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

(** An element of the group. Values compare equal through {!equal} even
    when their Jacobian representations differ. *)
type point

(** Modular context for Z_n, n the group order. *)
val scalar_field : Modular.ctx

(** The group order n, and the byte length of an encoded scalar or
    coordinate (32). *)
val order : Nat.t
val byte_len : int

(** [decode_scalar s] is the big-endian scalar [s] when [s] has at most
    {!byte_len} bytes and its value is below the order; [None]
    otherwise. For scalars read from outside the program: the group law
    reduces mod n, so a non-canonical twin would act like its
    canonical value. *)
val decode_scalar : string -> Nat.t option

(** Uniform scalar in [1, order). *)
val random_scalar : Dd_crypto.Drbg.t -> Nat.t

val infinity : point

(** The generator G, one shared value: {!Group_ctx.g} is this point. *)
val generator : point
val is_infinity : point -> bool

(** [to_affine p] is [None] for infinity and [Some (x, y)] otherwise. *)
val to_affine : point -> (Nat.t * Nat.t) option

(** Normalize a whole array with a single field inversion
    (Montgomery's trick, in {!Dd_bignum.Fe}); element [i] is [None] iff
    [pts.(i)] is infinity. Cost: one inversion plus ~3 field mults per
    point, versus one inversion per point for repeated {!to_affine}. *)
val to_affine_batch : point array -> (Nat.t * Nat.t) option array

val of_affine : Nat.t * Nat.t -> point
val on_curve : Nat.t * Nat.t -> bool

(** [add p q] is [p + q]; a [q] stored with Z = 1 ({!is_affine}:
    decoded points, table entries) takes the mixed addition. *)
val add : point -> point -> point
val double : point -> point
val neg : point -> point
val sub : point -> point -> point

(** [mul k p] is [k] dot [p]; [k] is reduced mod the group order.
    Fixed 4-bit windows with a scalar-independent operation sequence —
    safe for secret scalars (see the timing contract above). *)
(* lint: public — computing in the exponent: k*P reveals k only by breaking DL *)
val mul : Nat.t -> point -> point
val mul_int : int -> point -> point

(** [mul_vartime k p] computes [k] dot [p] by width-5 wNAF.
    {b Variable time}: only for public scalars and points (verification
    of signatures, proofs, and other on-the-wire data). *)
val mul_vartime : Nat.t -> point -> point

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
val make_base_table : width:int -> point -> base_table

(** A copy of the table's entries,
    [(base_table_rows tbl).(i).(j) = (2j+1) * 2^(w*i) * B]. A table over
    the identity has no rows. *)
val base_table_rows : base_table -> point array array

(** [is_affine p] holds iff [p] is finite and stored with Z = 1, the
    form the comb tables' mixed additions rely on. *)
val is_affine : point -> bool

(** [mul_base_table tbl k] is [k * B]. Safe for secret scalars: every
    row does one lookup and one mixed addition unconditionally, the
    first from the identity. *)
(* lint: public — computing in the exponent: k*B reveals k only by breaking DL *)
val mul_base_table : base_table -> Nat.t -> point

(** One job of {!mul_base_batch}: the sum of [k * B] over its
    (table, scalar) terms, e.g. [[ (g, m); (h, r) ]] for [m*G + r*H]. *)
type comb_job = (base_table * Nat.t) list

(** The most jobs per lockstep group of {!mul_base_batch}: [n] jobs run
    in [ceil (n / batch_group)] groups of near-equal size. *)
val batch_group : int

(** [bit_table tbl] is [tbl] for terms whose scalar is a bit: in a
    {!mul_base_batch} job, a term [(bit_table tbl, b)] with [b] 0 or 1
    runs no comb lane. Its base joins the job's sum through the
    complete-addition merge, flagged as the identity when [b = 0], so
    the field operations are the same for either bit. Raises
    [Invalid_argument] from {!mul_base_batch} if [b > 1]. Elsewhere
    ({!mul_base_table}, {!mul2}) it is [tbl]. *)
val bit_table : base_table -> base_table

(** The comb lanes a job runs in {!mul_base_batch}: its terms that are
    not on a {!bit_table}. *)
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

(** [mul2 table u v p] is [u*B + v*p] (B the fixed base behind
    [table]) by Strauss-Shamir: the wNAF chain for [v*p] and the comb's
    mixed adds for [u*B] share one accumulator. {b Variable time}:
    public inputs only — this is the verifier's kernel ([s*G + e*PK]). *)
val mul2 : base_table -> Nat.t -> Nat.t -> point -> point

(** [msm pairs] is the multi-scalar multiplication
    [sum_i k_i * P_i]. Zero scalars and infinity points are skipped;
    the algorithm is chosen from the surviving batch size: joint
    width-5 wNAF Strauss (one shared doubling chain, per-point
    odd-multiple tables built per call and batch-normalized so digit
    adds are mixed adds) for small batches, bucketed Pippenger above
    256 points with the window width derived from [n]. [?window]
    forces the Pippenger path with that width (used by differential
    tests to cover both paths at any size). This is the kernel behind
    the randomized batch verifiers, which fold the terms of a fixed
    base into one coefficient before calling it (G and H go to their
    comb tables instead, [Group_ctx.acc_check]). {b Variable time}:
    public scalars and points only. *)
val msm : ?window:int -> (Nat.t * point) array -> point

val equal : point -> point -> bool

(** Uncompressed encoding: ["\x00"] for infinity, [0x04 || X || Y]
    otherwise. [decode] validates curve membership and returns [None]
    on malformed or off-curve input. *)
val encode : point -> string
val decode : string -> point option

(** Square root in F_p by {!Dd_bignum.Fe.sqrt} (p = 3 mod 4); [None]
    for non-residues. *)
val field_sqrt : Nat.t -> Nat.t option

(** Compressed encoding: [0x02/0x03 || X] (33 bytes),
    ["\x00"] for infinity. [decode_compressed] validates and recovers
    the y coordinate by its parity bit. *)
val encode_compressed : point -> string
val decode_compressed : string -> point option

(** Derive a point with unknown discrete log from a domain-separation
    label (try-and-increment). *)
val hash_to_point : string -> point

(** Hash byte-string parts to a scalar mod the group order. *)
val hash_to_scalar : string list -> Nat.t
