(** The commitment generators G and H (H is hash-derived, so its
    discrete log w.r.t. G is unknown), their width-8 comb tables, and
    the operations that use them. Everything else about the group (its
    order, scalar field, codecs and general multiplications) lives in
    {!Curve}, which needs no context; a function takes a [t] only when
    it, or something it calls, multiplies by G or H. *)

module Nat = Dd_bignum.Nat

type t

(** One process-wide context over secp256k1, built on first call (table
    construction costs a few hundred milliseconds; share it). Safe to
    call from any domain: a first-use race may build the context twice
    but exactly one value is published and returned everywhere. *)
val default : unit -> t

(** [g t] is {!Curve.generator} itself (physically equal). *)
val g : t -> Curve.point
val h : t -> Curve.point

(** The precomputed width-8 comb tables for G and H (for {!Curve.mul2}
    callers and {!Curve.mul_base_batch} jobs). *)
val g_table : t -> Curve.base_table
val h_table : t -> Curve.base_table

(** Fixed-base multiplications by G and H using the precomputed tables. *)
val mul_g : t -> Nat.t -> Curve.point
val mul_h : t -> Nat.t -> Curve.point

(** General multiplication; physically-equal G or H arguments take the
    fixed-base fast path. Safe for secret scalars. *)
val mul : t -> Nat.t -> Curve.point -> Curve.point

(** Like {!mul} but arbitrary points take the width-5 wNAF path.
    {b Variable time} — public scalars and points only (see the timing
    contract in curve.mli). *)
val mul_vartime : t -> Nat.t -> Curve.point -> Curve.point

(** [mul2_g t u v p] is [u*G + v*p] by Strauss-Shamir off the G table.
    {b Variable time} — verification only. *)
val mul2_g : t -> Nat.t -> Nat.t -> Curve.point -> Curve.point

(** MSM accumulator for the randomized batch verifiers: collects terms
    [k * P] (or [k * -P] via {!acc_sub}) of a folded verification
    equation. Terms hitting the (physically equal) fixed generators G
    and H fold into two scalar coefficients served by the comb tables
    at {!acc_check} time; everything else lands in one {!Curve.msm}.
    {b Variable time} — public equation data only. *)
type msm_acc

val msm_acc : t -> msm_acc
val acc_add : msm_acc -> Nat.t -> Curve.point -> unit
val acc_sub : msm_acc -> Nat.t -> Curve.point -> unit

(** [acc_add_pre a k pc] accumulates [k * Q] for a point with a
    precomputed wide msm table ({!Curve.precompute}) — long-lived
    verification keys skip their per-call table build this way. *)
val acc_add_pre : msm_acc -> Nat.t -> Curve.precomp -> unit

(** [acc_check a] holds iff the accumulated combination is the
    identity — i.e. every folded equation holds (up to the 2^-128
    weight-collision probability, see {!Batch}). *)
val acc_check : msm_acc -> bool
