(** The commitment generators G and H (H is hash-derived, so its
    discrete log w.r.t. G is unknown), their width-8 comb tables, and
    the operations that use them. G is {!Curve.generator}; H is hashed
    once, when the module initializes. Everything else about the group
    (its order, scalar field, codecs and general multiplications) lives
    in {!Curve}. There is no context value to pass around. *)

module Nat = Dd_bignum.Nat

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

(** The precomputed width-8 comb tables for G and H (for {!Curve.mul2}
    callers, {!Curve.mul_base_batch} jobs and the legs of
    {!acc_check}). Each is built on its
    first use (0.33 MB, about 10 ms on a 2-vCPU x86-64 VM), so a process
    that never multiplies by H never builds H's table. Safe to call
    from any domain: racing first uses may each build the table, but
    exactly one value is published and returned everywhere. *)
val g_table : unit -> Curve.base_table
val h_table : unit -> Curve.base_table

(** Fixed-base multiplications by G and H using the precomputed tables. *)
val mul_g : Nat.t -> Curve.point
val mul_h : Nat.t -> Curve.point

(** General multiplication; physically-equal G or H arguments take the
    fixed-base fast path. Safe for secret scalars. *)
val mul : Nat.t -> Curve.point -> Curve.point

(** Like {!mul} but arbitrary points take the width-5 wNAF path.
    {b Variable time} — public scalars and points only (see the timing
    contract in curve.mli). *)
val mul_vartime : Nat.t -> Curve.point -> Curve.point

(** [mul2_g u v p] is [u*G + v*p] by Strauss-Shamir off the G table.
    {b Variable time} — verification only. *)
val mul2_g : Nat.t -> Nat.t -> Curve.point -> Curve.point

(** MSM accumulator for the randomized batch verifiers: collects terms
    [k * P] (or [k * -P] via {!acc_sub}) of a folded verification
    equation. Terms hitting the (physically equal) fixed generators G
    and H fold into two scalar coefficients, the G and H legs, each
    evaluated off its comb table at {!acc_check} time (a zero leg is
    skipped, and builds no table); everything else lands in one
    {!Curve.msm}, so a caller with many terms on one other point folds
    them itself. {b Variable time} — public equation data only. *)
type msm_acc

val msm_acc : unit -> msm_acc
val acc_add : msm_acc -> Nat.t -> Curve.point -> unit
val acc_sub : msm_acc -> Nat.t -> Curve.point -> unit

(** [acc_check a] holds iff the accumulated combination is the
    identity — i.e. every folded equation holds (up to the 2^-128
    weight-collision probability, see {!Batch}). *)
val acc_check : msm_acc -> bool
