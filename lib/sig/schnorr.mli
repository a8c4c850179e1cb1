(** Schnorr signatures over the shared group (Fiat-Shamir with SHA-256).
    Existentially unforgeable under the discrete-log assumption in the
    random-oracle model — the signature scheme assumed by the paper's
    Theorem 2 safety analysis. *)

module Sc = Dd_bignum.Sc
module Curve = Dd_group.Curve

type secret_key = Sc.t
type public_key = Curve.point
type signature

val keygen : Dd_crypto.Drbg.t -> secret_key * public_key

val sign :
  Dd_crypto.Drbg.t -> sk:secret_key -> pk:public_key -> string -> signature

(** Signing in two halves, for signers that compute many nonce
    commitments in one {!Dd_group.Curve.mul_base_batch}: [nonce] draws k
    exactly as {!sign} does, and [sign_with_nonce ~nonce:k ~commitment]
    finishes the signature given [commitment = k*G] in affine form
    (Z = 1). [sign] is [nonce], one comb, one normalization and
    [sign_with_nonce]. *)
val nonce : Dd_crypto.Drbg.t -> Sc.t

val sign_with_nonce :
  nonce:Sc.t -> commitment:Curve.point -> sk:secret_key -> pk:public_key -> string -> signature

(** [challenge ~commitment ~pk msg] is the Fiat-Shamir challenge
    scalar. Exposed so benchmarks and tests can reconstruct the
    verification equation from its parts. *)
val challenge : commitment:Curve.point -> pk:public_key -> string -> Sc.t

(** [verify ~pk msg sg] checks the equation [s*G + e*PK - R = O] that
    {!verify_batch} folds, alone at weight one
    ({!Dd_group.Group_ctx.holds}). Public data only. *)
val verify : pk:public_key -> string -> signature -> bool

(** Precomputed comb table for a public key, for verifying many
    signatures under the same key (e.g. a node's fellow VCs during an
    election). [verify_with_table] splits the challenge [e] into its
    GLV halves ({!Dd_group.Curve.endo_split}) and replaces the [e*PK]
    half of the verification equation with doubling-free comb adds over
    both halves ({!Dd_group.Curve.endo_table}). The table covers public
    scalars only: the split and the walk are variable time, which is
    fine for a challenge hash and never for a secret.
    [make_pk_tables] builds the tables of many keys in one batch, one
    field inversion per build step across all of them; [make_pk_table]
    is a batch of one. *)
type pk_table
val make_pk_tables : public_key array -> pk_table array
val make_pk_table : public_key -> pk_table
val verify_with_table :
  pk:public_key -> pk_table:pk_table -> string -> signature -> bool

(** [verify_batch rng items] verifies all [(pk, msg, signature)]
    triples at once: the n verification equations fold into one
    multi-scalar multiplication under independent random 128-bit
    weights drawn from [rng], and one Montgomery-trick normalization
    replaces the per-signature point-encoding inversions inside the
    challenge hash. The weighted challenges of every signature under
    one key (equal encodings) fold into one coefficient, so n
    signatures from k signers cost the MSM n + k terms. A batch with
    an invalid signature accepts with probability at most 2^-128 (see
    {!Dd_group.Batch}). Public data only (variable time). *)
val verify_batch :
  Dd_crypto.Drbg.t ->
  (public_key * string * signature) array -> bool

(** The nonce commitment R a signature carries. *)
(* lint: allow unused-export — test_core "chunk points affine" *)
val commitment : signature -> Curve.point

(** [s || R compressed], 65 bytes. [decode] rejects a non-canonical
    [s >= n] and an R that is off the curve or the identity. *)
val encode : signature -> string
val decode : string -> signature option
