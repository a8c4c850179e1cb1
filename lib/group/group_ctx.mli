(** Shared group context: curve plus the two generators G and H
    (H is hash-derived, so its discrete log w.r.t. G is unknown), with
    precomputed fixed-base tables. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type t

(** [create ()] builds the context. *)
val create : unit -> t

(** One process-wide context over secp256k1, built on first call (table
    construction costs a few hundred milliseconds; share it). Safe to
    call from any domain: a first-use race may build the context twice
    but exactly one value is published and returned everywhere. *)
val default : unit -> t

val curve : t -> Curve.t
val g : t -> Curve.point
val h : t -> Curve.point

(** The precomputed width-8 comb tables for G and H (for {!Curve.mul2}
    callers and {!mul_batch} jobs). *)
val g_table : t -> Curve.base_table
val h_table : t -> Curve.base_table

(** Fixed-base multiplications by G and H using the precomputed tables. *)
val mul_g : t -> Nat.t -> Curve.point
val mul_h : t -> Nat.t -> Curve.point

(** {!Curve.mul_base_batch} over the shared curve: every job's result
    comes out affine (or the identity). Safe for secret scalars. *)
val mul_batch : t -> Curve.comb_job array -> Curve.point array

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

(** {!Curve.msm} over the shared curve. {b Variable time} —
    verification only. *)
val msm : t -> (Nat.t * Curve.point) array -> Curve.point

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

val order : t -> Nat.t
val scalar_field : t -> Modular.ctx

(** Uniform scalar in [1, order). *)
val random_scalar : t -> Dd_crypto.Drbg.t -> Nat.t
