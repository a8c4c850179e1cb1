(* The two generators the commitments use, with their fixed-base
   tables: G (the curve's generator, the same shared point) and H
   (hash-to-point, so nobody knows log_G H). Built once per process and
   passed around explicitly to the code that multiplies by them. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type t = {
  g : Curve.point;
  h : Curve.point;
  g_table : Curve.base_table;
  h_table : Curve.base_table;
}

(* Width-8 comb tables for G and H: 32 rows of 128 entries, one mixed
   add per row (half the adds of width 4) for about 0.33 MB each. *)
let generator_width = 8

(* Once, not Lazy: forcing a lazy from two domains at the same time
   raises; the once cell tolerates the race (worst case both build,
   one value is published). *)
let default_once =
  Dd_parallel.Once.make (fun () ->
      let g = Curve.generator in
      let h = Curve.hash_to_point "d-demos second generator H" in
      {
        g;
        h;
        g_table = Curve.make_base_table ~width:generator_width g;
        h_table = Curve.make_base_table ~width:generator_width h;
      })

let default () = Dd_parallel.Once.force default_once

let g t = t.g
let h t = t.h
let g_table t = t.g_table
let h_table t = t.h_table

(* Fast fixed-base scalar multiplications. *)
let mul_g t k = Curve.mul_base_table t.g_table k
let mul_h t k = Curve.mul_base_table t.h_table k

(* General multiplication that recognizes the two fixed bases by
   physical equality and takes the precomputed-table fast path. *)
let mul t k pt =
  if pt == t.g then mul_g t k
  else if pt == t.h then mul_h t k
  else Curve.mul k pt

(* Variable-time variant for public data (verification). The fixed-base
   comb path is already vartime-competitive, so G and H still dispatch
   to their tables; arbitrary points take the wNAF path. *)
let mul_vartime t k pt =
  if pt == t.g then mul_g t k
  else if pt == t.h then mul_h t k
  else Curve.mul_vartime k pt

(* u*G + v*P in one Strauss-Shamir pass: the verifier's kernel. *)
let mul2_g t u v pt = Curve.mul2 t.g_table u v pt

(* --- MSM accumulator for the randomized batch verifiers -------------- *)
(* Batch verifiers fold many equations sum_j k_j * P_j = O into one
   linear combination. Most terms hit the two fixed generators, so the
   accumulator recognizes G and H by physical equality (the same trick
   as [mul]) and folds their coefficients into two scalars; at check
   time those two legs go through the doubling-free comb tables and
   only the remaining terms pay for the MSM. *)

type msm_acc = {
  actx : t;
  mutable ag : Nat.t;                        (* coefficient of G *)
  mutable ah : Nat.t;                        (* coefficient of H *)
  mutable terms : (Nat.t * Curve.point) list;
  mutable pterms : (Nat.t * Curve.precomp) list;  (* precomputed-table terms *)
  mutable nterms : int;
}

let msm_acc t =
  { actx = t; ag = Nat.zero; ah = Nat.zero; terms = []; pterms = []; nterms = 0 }

let acc_add a k p =
  let fn = Curve.scalar_field in
  if p == a.actx.g then a.ag <- Modular.add fn a.ag k
  else if p == a.actx.h then a.ah <- Modular.add fn a.ah k
  else begin
    a.terms <- (k, p) :: a.terms;
    a.nterms <- a.nterms + 1
  end

(* Accumulate k * Q for a point with a precomputed wide table (e.g. a
   cached verification key): the MSM then skips Q's per-call table
   build and walks the wider precomputed windows. *)
let acc_add_pre a k pc =
  a.pterms <- (k, pc) :: a.pterms;
  a.nterms <- a.nterms + 1

(* Accumulate k * (-P): subtraction side of a verification equation. *)
let acc_sub a k p =
  let fn = Curve.scalar_field in
  if p == a.actx.g then a.ag <- Modular.sub fn a.ag k
  else if p == a.actx.h then a.ah <- Modular.sub fn a.ah k
  else begin
    a.terms <- (k, Curve.neg p) :: a.terms;
    a.nterms <- a.nterms + 1
  end

(* Does the accumulated combination equal the identity? When there are
   free terms, the folded G/H coefficients ride along as two more MSM
   pairs — their marginal cost inside the shared Strauss chain is below
   a comb multiplication, especially once the GLV split halves the
   chain. With no free terms (pure fixed-base batches), the comb tables
   win and the MSM is skipped entirely. *)
let acc_check a =
  let t = a.actx in
  match a.terms, a.pterms with
  | [], [] ->
    Curve.is_infinity (Curve.add (mul_g t a.ag) (mul_h t a.ah))
  | terms, pterms ->
    let terms = if Nat.is_zero a.ag then terms else (a.ag, t.g) :: terms in
    let terms = if Nat.is_zero a.ah then terms else (a.ah, t.h) :: terms in
    Curve.is_infinity
      (Curve.msm_pre (Array.of_list pterms) (Array.of_list terms))
