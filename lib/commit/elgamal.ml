(* Lifted ElGamal over the shared curve group, used as the paper's
   additively homomorphic commitment scheme for option encodings.

   A commitment to scalar m with randomness r is the pair
     (r*G, m*G + r*H)
   where H is the system-wide second generator with unknown discrete
   log. Componentwise point addition adds committed values and
   randomness; an opening is (m, r). Decommitment verifies both
   components, which makes the scheme binding under the discrete-log
   assumption and hiding because r*H is a one-time pad over <H>. *)

module Nat = Dd_bignum.Nat
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve

type t = {
  c1 : Curve.point;  (* r*G *)
  c2 : Curve.point;  (* m*G + r*H *)
}

type opening = {
  msg : Nat.t;
  rand : Nat.t;
}

let commit ~msg ~rand =
  { c1 = Group_ctx.mul_g rand;
    c2 = Curve.add (Group_ctx.mul_g msg) (Group_ctx.mul_h rand) }

(* [commit]'s two points as comb jobs for a message that is a bit, for
   callers that evaluate many at once with [Curve.mul_base_batch]: the
   G term of c2 is a bit term, so c2 runs one comb lane, on H. *)
let commit_bit_jobs (o : opening) : Curve.comb_job * Curve.comb_job =
  let g = Group_ctx.g_table () in
  ([ (g, o.rand) ], [ (Curve.bit_table g, o.msg); (Group_ctx.h_table (), o.rand) ])

let commit_random rng ~msg =
  let rand = Curve.random_scalar rng in
  (commit ~msg ~rand, { msg; rand })

let zero_commitment = { c1 = Curve.infinity; c2 = Curve.infinity }

let add a b = { c1 = Curve.add a.c1 b.c1; c2 = Curve.add a.c2 b.c2 }

let sum = List.fold_left add zero_commitment

let add_opening a b =
  let fn = Curve.scalar_field in
  let module Modular = Dd_bignum.Modular in
  { msg = Modular.add fn a.msg b.msg; rand = Modular.add fn a.rand b.rand }

let verify commitment opening =
  Curve.equal commitment.c1 (Group_ctx.mul_g opening.rand)
  && Curve.equal commitment.c2
    (Curve.add (Group_ctx.mul_g opening.msg) (Group_ctx.mul_h opening.rand))

(* Fold the two opening equations into an MSM accumulator under fresh
   random weights: rand*G - c1 = O and msg*G + rand*H - c2 = O. The
   G/H legs collapse into the accumulator's comb-table coefficients,
   so a batch of n openings costs one 2n-point MSM instead of 3n
   fixed-base multiplications. *)
let accumulate acc rng commitment (opening : opening) =
  let fn = Curve.scalar_field in
  let module Modular = Dd_bignum.Modular in
  let msg = Modular.reduce fn opening.msg and rand = Modular.reduce fn opening.rand in
  let w1 = Dd_group.Batch.weight rng in
  Group_ctx.acc_add acc (Modular.mul fn w1 rand) Group_ctx.g;
  Group_ctx.acc_sub acc w1 commitment.c1;
  let w2 = Dd_group.Batch.weight rng in
  Group_ctx.acc_add acc (Modular.mul fn w2 msg) Group_ctx.g;
  Group_ctx.acc_add acc (Modular.mul fn w2 rand) Group_ctx.h;
  Group_ctx.acc_sub acc w2 commitment.c2

(* Verify many (commitment, opening) pairs at once; soundness 2^-128
   per batch (see Dd_group.Batch). Vartime, public data only. *)
let verify_batch rng (items : (t * opening) array) =
  match Array.length items with
  | 0 -> true
  | 1 -> let c, o = items.(0) in verify c o
  | _ ->
    let acc = Group_ctx.msm_acc () in
    Array.iter (fun (c, o) -> accumulate acc rng c o) items;
    Group_ctx.acc_check acc

let equal a b = Curve.equal a.c1 b.c1 && Curve.equal a.c2 b.c2

let encode t = Curve.encode t.c1 ^ Curve.encode t.c2

(* Inverse of [encode]. The two point encodings are self-delimiting
   (1 byte for infinity, 1 + 2*byte_len otherwise), so the split point
   is read off the leading tag byte. *)
let decode s =
  let n = String.length s in
  let point_len off =
    if off >= n then None
    else if s.[off] = '\x00' then Some 1
    else Some (1 + (2 * Curve.byte_len))
  in
  match point_len 0 with
  | None -> None
  | Some l1 -> (
      match point_len l1 with
      | None -> None
      | Some l2 ->
          if l1 + l2 <> n then None
          else begin
            match
              ( Curve.decode (String.sub s 0 l1),
                Curve.decode (String.sub s l1 l2) )
            with
            | Some c1, Some c2 -> Some { c1; c2 }
            | _ -> None
          end)

let components t = (t.c1, t.c2)
let make ~c1 ~c2 = { c1; c2 }
