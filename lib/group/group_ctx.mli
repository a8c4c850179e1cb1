(** The commitment generators G and H (H is hash-derived, so its
    discrete log w.r.t. G is unknown), their width-8 comb tables, the
    operations that use them, and the accumulator in which every
    verification equation is evaluated, serial or batched
    ({!equation}). G is {!Curve.generator}; H is hashed once, when the
    module initializes. Everything else about the group (its codecs
    and general multiplications) lives in {!Curve}. There is no
    context value to pass around. *)

module Sc = Dd_bignum.Sc

(** An opaque token with one value. Nothing reads it: it survives only
    because perfbench names it, through [Mux.encode] and [decode],
    [Election_store.decode_trustee_record], [Trustee.env],
    [Runtime.gctx], [Ea.static] and [Auditor.assemble]. *)
type t

(** The token; builds nothing. *)
val default : unit -> t

(** [g] is {!Curve.generator} itself (physically equal). *)
val g : Curve.point
val h : Curve.point

(** The precomputed width-8 comb tables for G and H (for
    {!Curve.mul2_endo} callers, {!Curve.mul_base_batch} jobs and the
    legs of {!acc_check}). Each is built on its
    first use (0.33 MB, about 10 ms on a 2-vCPU x86-64 VM), so a process
    that never multiplies by H never builds H's table. Safe to call
    from any domain: racing first uses may each build the table, but
    exactly one value is published and returned everywhere. *)
val g_table : unit -> Curve.base_table
val h_table : unit -> Curve.base_table

(** Fixed-base multiplications by G and H using the precomputed tables.
    Safe for secret scalars ({!Curve.mul_base_table}). *)
val mul_g : Sc.t -> Curve.point
val mul_h : Sc.t -> Curve.point

(** MSM accumulator for the verifiers: collects terms [k * P] (or
    [k * -P] via {!acc_sub}) of one verification equation or of many
    folded under random weights. Terms hitting the (physically equal) fixed generators G
    and H fold into two scalar coefficients, the G and H legs, each
    evaluated off its comb table at {!acc_check} time (a zero leg is
    skipped, and builds no table); everything else lands in one
    {!Curve.msm}, so a caller with many terms on one other point folds
    them itself. {b Variable time} — public equation data only. *)
type msm_acc

val msm_acc : unit -> msm_acc
val acc_add : msm_acc -> Sc.t -> Curve.point -> unit
val acc_sub : msm_acc -> Sc.t -> Curve.point -> unit

(** [acc_check a] holds iff the accumulated combination is the
    identity: the one equation it holds holds exactly, and folded
    equations all hold up to the 2^-128 weight-collision probability
    (see {!Batch}). *)
val acc_check : msm_acc -> bool

(** One verification equation [sum_j k_j P_j = O]: [eq acc w] adds
    [w * k_j] on each [P_j]. Every verifier states each of its
    equations once, this way, for its serial and its batch check. *)
type equation = msm_acc -> Sc.t -> unit

(** [holds eq] evaluates [eq] alone, at weight one, in an accumulator of
    its own: exact, with no randomness. *)
val holds : equation -> bool

(** Where a verifier sends its equations. [serial ()] checks each alone
    with {!holds}, skipping the rest after the first that fails.
    [folded rng] adds each to one accumulator under a fresh
    {!Batch.weight}, in the order given, and [verdict] checks the sum. *)
type sink

val serial : unit -> sink
val folded : Dd_crypto.Drbg.t -> sink
val equation : sink -> equation -> unit
val verdict : sink -> bool
