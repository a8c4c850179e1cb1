(* The shared group context used across the whole system: the curve, its
   generator G with a precomputed fixed-base table, and a second
   generator H (hash-to-point, so nobody knows log_G H). Built once per
   process and passed around explicitly. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type t = {
  curve : Curve.t;
  g : Curve.point;
  h : Curve.point;
  g_table : Curve.base_table;
  h_table : Curve.base_table;
}

(* Width-8 comb tables for G and H: 32 rows of 128 entries, one mixed
   add per row (half the adds of width 4) for about 0.33 MB each. *)
let generator_width = 8

let create () =
  let curve = Curve.create () in
  let g = Curve.generator curve in
  let h = Curve.hash_to_point curve "d-demos second generator H" in
  {
    curve;
    g;
    h;
    g_table = Curve.make_base_table curve ~width:generator_width g;
    h_table = Curve.make_base_table curve ~width:generator_width h;
  }

(* Once, not Lazy: forcing a lazy from two domains at the same time
   raises; the once cell tolerates the race (worst case both build,
   one value is published). *)
let default_once = Dd_parallel.Once.make (fun () -> create ())
let default () = Dd_parallel.Once.force default_once

let curve t = t.curve
let g t = t.g
let h t = t.h
let g_table t = t.g_table
let h_table t = t.h_table

(* Fast fixed-base scalar multiplications. *)
let mul_g t k = Curve.mul_base_table t.curve t.g_table k
let mul_h t k = Curve.mul_base_table t.curve t.h_table k

(* Many fixed-base multiplications at once, in affine lockstep. *)
let mul_batch t jobs = Curve.mul_base_batch t.curve jobs

(* General multiplication that recognizes the two fixed bases by
   physical equality and takes the precomputed-table fast path. *)
let mul t k pt =
  if pt == t.g then mul_g t k
  else if pt == t.h then mul_h t k
  else Curve.mul t.curve k pt

(* Variable-time variant for public data (verification). The fixed-base
   comb path is already vartime-competitive, so G and H still dispatch
   to their tables; arbitrary points take the wNAF path. *)
let mul_vartime t k pt =
  if pt == t.g then mul_g t k
  else if pt == t.h then mul_h t k
  else Curve.mul_vartime t.curve k pt

(* u*G + v*P in one Strauss-Shamir pass: the verifier's kernel. *)
let mul2_g t u v pt = Curve.mul2 t.curve t.g_table u v pt

(* Multi-scalar multiplication over the shared curve (vartime, public
   data only — see the timing contract in curve.mli). *)
let msm t pairs = Curve.msm t.curve pairs

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
  let fn = Curve.scalar_field a.actx.curve in
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
  let fn = Curve.scalar_field a.actx.curve in
  if p == a.actx.g then a.ag <- Modular.sub fn a.ag k
  else if p == a.actx.h then a.ah <- Modular.sub fn a.ah k
  else begin
    a.terms <- (k, Curve.neg a.actx.curve p) :: a.terms;
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
    Curve.is_infinity (Curve.add t.curve (mul_g t a.ag) (mul_h t a.ah))
  | terms, pterms ->
    let terms = if Nat.is_zero a.ag then terms else (a.ag, t.g) :: terms in
    let terms = if Nat.is_zero a.ah then terms else (a.ah, t.h) :: terms in
    Curve.is_infinity
      (Curve.msm_pre t.curve (Array.of_list pterms) (Array.of_list terms))

let order t = Curve.order t.curve
let scalar_field t = Curve.scalar_field t.curve

(* Draw a uniform scalar in [1, order) from a DRBG. *)
let random_scalar t rng =
  let byte_len = Curve.byte_len t.curve in
  let rec draw () =
    let k = Nat.of_bytes_be (Dd_crypto.Drbg.bytes rng byte_len) in
    if Nat.is_zero k || Nat.compare k (order t) >= 0 then draw () else k
  in
  draw ()
