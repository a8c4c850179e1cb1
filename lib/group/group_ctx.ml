(* The two generators the commitments use, with their fixed-base
   tables: G (the curve's generator, the same shared point) and H
   (hash-to-point, so nobody knows log_G H). Both are module values;
   each comb table is built on its first use. *)

module Sc = Dd_bignum.Sc

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

(* --- MSM accumulator for the verifiers ------------------------------ *)
(* An accumulator holds one equation sum_j k_j * P_j = O (a serial
   check) or many folded into one random linear combination (a batch).
   Most terms hit the two fixed generators, so the
   accumulator recognizes G and H by physical equality and folds their coefficients into two scalars; at check
   time those two legs go through the doubling-free comb tables and
   only the remaining terms pay for the MSM. *)

type msm_acc = {
  mutable ag : Sc.t;                         (* coefficient of G *)
  mutable ah : Sc.t;                         (* coefficient of H *)
  mutable terms : (Sc.t * Curve.point) list;
}

let msm_acc () = { ag = Sc.zero; ah = Sc.zero; terms = [] }

let acc_add a k p =
  if p == g then a.ag <- Sc.add a.ag k
  else if p == h then a.ah <- Sc.add a.ah k
  else a.terms <- (k, p) :: a.terms

(* Accumulate k * (-P): subtraction side of a verification equation. *)
let acc_sub a k p =
  if p == g then a.ag <- Sc.sub a.ag k
  else if p == h then a.ah <- Sc.sub a.ah k
  else a.terms <- (k, Curve.neg p) :: a.terms

(* Does the accumulated combination equal the identity? The G and H
   legs are one comb multiplication each off their tables, and a zero
   leg is skipped, so a verifier that never folds an H term (Schnorr
   batches) never builds H's table. The free terms go to one MSM. *)
let acc_check a =
  let leg table k = if Sc.is_zero k then Curve.infinity else Curve.mul_base_table (table ()) k in
  Curve.is_infinity
    (Curve.add (Curve.msm (Array.of_list a.terms))
       (Curve.add (leg g_table a.ag) (leg h_table a.ah)))

(* --- verification equations ------------------------------------------- *)
(* A serial check evaluates each equation alone at weight one: exact,
   and it draws no randomness. A term at weight one is added, not
   multiplied ([Curve.msm] adds scalars of one or two bits directly),
   so it builds no table for a point it only subtracts. A batch folds
   every equation into one accumulator under a fresh weight each. *)

type equation = msm_acc -> Sc.t -> unit

let holds (eq : equation) =
  let acc = msm_acc () in
  eq acc Sc.one;
  acc_check acc

type sink =
  | Serial of { mutable ok : bool }
  | Folded of { acc : msm_acc; rng : Dd_crypto.Drbg.t }

let serial () = Serial { ok = true }
let folded rng = Folded { acc = msm_acc (); rng }

(* A serial sink skips the equations after the first that fails. *)
let equation sink eq =
  match sink with
  | Serial s -> if s.ok then s.ok <- holds eq
  | Folded f -> eq f.acc (Batch.weight f.rng)

let verdict = function
  | Serial s -> s.ok
  | Folded f -> acc_check f.acc
