(* The two generators the commitments use, with their fixed-base
   tables: G (the curve's generator, the same shared point) and H
   (hash-to-point, so nobody knows log_G H). Both are module values;
   each comb table is built on its first use. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type t = unit

let default () = ()

let g = Curve.generator
let h = Curve.hash_to_point "d-demos second generator H"

(* Width-8 comb tables for G and H: 32 rows of 128 entries, one mixed
   add per row (half the adds of width 4) for about 0.33 MB each. Once,
   not Lazy: forcing a lazy from two domains at the same time raises;
   the once cell tolerates the race (worst case both build, one value
   is published). *)
let g_cell = Dd_parallel.Once.make (fun () -> Curve.make_base_table ~width:8 g)
let h_cell = Dd_parallel.Once.make (fun () -> Curve.make_base_table ~width:8 h)
let g_table () = Dd_parallel.Once.force g_cell
let h_table () = Dd_parallel.Once.force h_cell

(* Fast fixed-base scalar multiplications. *)
let mul_g k = Curve.mul_base_table (g_table ()) k
let mul_h k = Curve.mul_base_table (h_table ()) k

(* General multiplication that recognizes the two fixed bases by
   physical equality and takes the precomputed-table fast path. *)
let mul k pt =
  if pt == g then mul_g k
  else if pt == h then mul_h k
  else Curve.mul k pt

(* Variable-time variant for public data (verification). The fixed-base
   comb path is already vartime-competitive, so G and H still dispatch
   to their tables; arbitrary points take the wNAF path. *)
let mul_vartime k pt =
  if pt == g then mul_g k
  else if pt == h then mul_h k
  else Curve.mul_vartime k pt

(* u*G + v*P in one Strauss-Shamir pass: the verifier's kernel. *)
let mul2_g u v pt = Curve.mul2 (g_table ()) u v pt

(* --- MSM accumulator for the randomized batch verifiers -------------- *)
(* Batch verifiers fold many equations sum_j k_j * P_j = O into one
   linear combination. Most terms hit the two fixed generators, so the
   accumulator recognizes G and H by physical equality (the same trick
   as [mul]) and folds their coefficients into two scalars; at check
   time those two legs go through the doubling-free comb tables and
   only the remaining terms pay for the MSM. *)

type msm_acc = {
  mutable ag : Nat.t;                        (* coefficient of G *)
  mutable ah : Nat.t;                        (* coefficient of H *)
  mutable terms : (Nat.t * Curve.point) list;
}

let msm_acc () = { ag = Nat.zero; ah = Nat.zero; terms = [] }

let acc_add a k p =
  let fn = Curve.scalar_field in
  if p == g then a.ag <- Modular.add fn a.ag k
  else if p == h then a.ah <- Modular.add fn a.ah k
  else a.terms <- (k, p) :: a.terms

(* Accumulate k * (-P): subtraction side of a verification equation. *)
let acc_sub a k p =
  let fn = Curve.scalar_field in
  if p == g then a.ag <- Modular.sub fn a.ag k
  else if p == h then a.ah <- Modular.sub fn a.ah k
  else a.terms <- (k, Curve.neg p) :: a.terms

(* Does the accumulated combination equal the identity? The G and H
   legs are one comb multiplication each off their tables, and a zero
   leg is skipped, so a verifier that never folds an H term (Schnorr
   batches) never builds H's table. The free terms go to one MSM. *)
let acc_check a =
  let leg table k = if Nat.is_zero k then Curve.infinity else Curve.mul_base_table (table ()) k in
  Curve.is_infinity
    (Curve.add (Curve.msm (Array.of_list a.terms))
       (Curve.add (leg g_table a.ag) (leg h_table a.ah)))
