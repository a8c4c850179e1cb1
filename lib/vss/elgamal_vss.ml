(* Verifiable secret sharing of lifted-ElGamal commitment openings.

   An opening is a scalar pair (msg, rand). The dealer shares both with
   degree-(k-1) polynomials F_m, F_r whose coefficient pairs are
   published as ElGamal commitments C_j = (r_j*G, m_j*G + r_j*H); the
   constant-term commitment C_0 is exactly the original option-encoding
   commitment on the BB, so shares verify directly against public
   election data:

     (r_i*G, m_i*G + r_i*H)  =  sum_j  i^j * C_j   (componentwise).

   Shares and auxiliary commitment vectors are additively homomorphic,
   which is what lets each trustee sum its shares over the tally set
   Etally and submit one verifiable opening share of the homomorphic
   total Esum. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve
module Elgamal = Dd_commit.Elgamal

type share = {
  x : int;
  msg : Nat.t;    (* F_m(x) *)
  rand : Nat.t;   (* F_r(x) *)
}

(* Commitments to the non-constant coefficient pairs (C_1 .. C_{k-1});
   C_0 is the commitment being shared and is carried separately. *)
type aux = Elgamal.t array

let deal_coefficients gctx rng ~(opening : Elgamal.opening) ~threshold ~shares =
  let fn = Group_ctx.scalar_field gctx in
  let mcoeffs, mshares =
    Shamir_scalar.split fn rng ~secret:opening.Elgamal.msg ~threshold ~shares
  in
  let rcoeffs, rshares =
    Shamir_scalar.split fn rng ~secret:opening.Elgamal.rand ~threshold ~shares
  in
  let coeffs =
    Array.init (threshold - 1) (fun j ->
        { Elgamal.msg = mcoeffs.(j + 1); rand = rcoeffs.(j + 1) })
  in
  let shares =
    Array.init shares (fun i ->
        { x = mshares.(i).Shamir_scalar.x;
          msg = mshares.(i).Shamir_scalar.value;
          rand = rshares.(i).Shamir_scalar.value })
  in
  (coeffs, shares)

let deal gctx rng ~opening ~threshold ~shares =
  let coeffs, shares = deal_coefficients gctx rng ~opening ~threshold ~shares in
  (Array.map (fun (o : Elgamal.opening) -> Elgamal.commit gctx ~msg:o.msg ~rand:o.rand) coeffs,
   shares)

let verify_share gctx ~(commitment : Elgamal.t) ~(aux : aux) (s : share) =
  let fn = Group_ctx.scalar_field gctx in
  let lhs = Elgamal.commit gctx ~msg:s.msg ~rand:s.rand in
  let rhs = ref commitment in
  let xj = ref Nat.one in
  let x = Modular.of_int fn s.x in
  Array.iter
    (fun cj ->
       xj := Modular.mul fn !xj x;
       let c1, c2 = Elgamal.components cj in
       let curve = Group_ctx.curve gctx in
       (* Aux commitments and evaluation points are public — vartime. *)
       let scaled =
         Elgamal.make ~c1:(Curve.mul_vartime curve !xj c1)
           ~c2:(Curve.mul_vartime curve !xj c2)
       in
       rhs := Elgamal.add gctx !rhs scaled)
    aux;
  Elgamal.equal gctx lhs !rhs

(* Batch verify_share over many (commitment, aux, share) triples: the
   componentwise equations
     rand*G - c1 - sum_j x^j*aux_c1_j = O
     msg*G + rand*H - c2 - sum_j x^j*aux_c2_j = O       (j >= 1)
   each get a fresh random weight and fold into one MSM accumulator.
   Soundness 2^-128 per batch; public data only (vartime). *)
let verify_shares_serial gctx rng (items : (Elgamal.t * aux * share) array) =
  match Array.length items with
  | 0 -> true
  | 1 -> let c, aux, s = items.(0) in verify_share gctx ~commitment:c ~aux s
  | _ ->
    let fn = Group_ctx.scalar_field gctx in
    let acc = Group_ctx.msm_acc gctx in
    Array.iter
      (fun (commitment, (aux : aux), (s : share)) ->
         let msg = Modular.reduce fn s.msg and rand = Modular.reduce fn s.rand in
         let w1 = Dd_group.Batch.weight rng in
         let w2 = Dd_group.Batch.weight rng in
         Group_ctx.acc_add acc (Modular.mul fn w1 rand) (Group_ctx.g gctx);
         Group_ctx.acc_add acc (Modular.mul fn w2 msg) (Group_ctx.g gctx);
         Group_ctx.acc_add acc (Modular.mul fn w2 rand) (Group_ctx.h gctx);
         let c1, c2 = Elgamal.components commitment in
         Group_ctx.acc_sub acc w1 c1;
         Group_ctx.acc_sub acc w2 c2;
         let x = Modular.of_int fn s.x in
         let xj = ref x in   (* x^j, starting at j = 1 *)
         Array.iter
           (fun cj ->
              let a1, a2 = Elgamal.components cj in
              Group_ctx.acc_sub acc (Modular.mul fn w1 !xj) a1;
              Group_ctx.acc_sub acc (Modular.mul fn w2 !xj) a2;
              xj := Modular.mul fn !xj x)
           aux)
      items;
    Group_ctx.acc_check acc

(* With a multi-domain [?pool] and a large enough batch, shard the
   items and AND the per-shard randomized batches: a batch that holds
   under one weighting holds under any, so the verdict is unchanged.
   Shard DRBGs are forked serially up front — weights cannot depend on
   the schedule. *)
let verify_shares_batch ?pool gctx rng (items : (Elgamal.t * aux * share) array) =
  let n = Array.length items in
  let psize = match pool with Some p -> Dd_parallel.Pool.size p | None -> 1 in
  if psize <= 1 || n < 64 then verify_shares_serial gctx rng items
  else begin
    let pool = Option.get pool in
    let nshards = min psize ((n + 31) / 32) in
    let rngs =
      Array.init nshards (fun i ->
          Dd_crypto.Drbg.fork rng ~label:(Printf.sprintf "vss-shard%d" i))
    in
    let verdicts =
      Dd_parallel.Pool.parallel_map pool ~chunk:1
        (fun shard ->
           let lo = shard * n / nshards and hi = (shard + 1) * n / nshards in
           verify_shares_serial gctx rngs.(shard) (Array.sub items lo (hi - lo)))
        (Array.init nshards (fun i -> i))
    in
    Array.for_all (fun b -> b) verdicts
  end

let reconstruct gctx ~threshold (shares : share list) : Elgamal.opening =
  let fn = Group_ctx.scalar_field gctx in
  let msg =
    Shamir_scalar.reconstruct fn ~threshold
      (List.map (fun s -> { Shamir_scalar.x = s.x; Shamir_scalar.value = s.msg }) shares)
  in
  let rand =
    Shamir_scalar.reconstruct fn ~threshold
      (List.map (fun s -> { Shamir_scalar.x = s.x; Shamir_scalar.value = s.rand }) shares)
  in
  { Elgamal.msg; Elgamal.rand }

let add_shares gctx a b =
  if a.x <> b.x then invalid_arg "Elgamal_vss.add_shares: mismatched evaluation points";
  let fn = Group_ctx.scalar_field gctx in
  { x = a.x; msg = Modular.add fn a.msg b.msg; rand = Modular.add fn a.rand b.rand }

let sum_shares gctx ~x l =
  List.fold_left (add_shares gctx) { x; msg = Nat.zero; rand = Nat.zero } l
