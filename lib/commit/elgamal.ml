(* Lifted ElGamal over the shared curve group, used as the paper's
   additively homomorphic commitment scheme for option encodings.

   A commitment to scalar m with randomness r is the pair
     (r*G, m*G + r*H)
   where H is the system-wide second generator with unknown discrete
   log. Componentwise point addition adds committed values and
   randomness; an opening is (m, r). Decommitment verifies both
   components, which makes the scheme binding under the discrete-log
   assumption and hiding because r*H is a one-time pad over <H>. *)

module Sc = Dd_bignum.Sc
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve

type t = {
  c1 : Curve.point;  (* r*G *)
  c2 : Curve.point;  (* m*G + r*H *)
}

type opening = {
  msg : Sc.t;
  rand : Sc.t;
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

let add_opening a b = { msg = Sc.add a.msg b.msg; rand = Sc.add a.rand b.rand }

(* The two opening equations, in this order: rand*G - c1 = O and
   msg*G + rand*H - c2 = O, each scalar times the weight. The G/H legs
   collapse into the accumulator's comb-table coefficients, so a batch
   of n openings costs one 2n-point MSM instead of 3n fixed-base
   multiplications, and a serial check costs three combs. *)
let equations sink commitment { msg; rand } =
  Group_ctx.equation sink (fun acc w ->
      Group_ctx.acc_add acc (Sc.mul w rand) Group_ctx.g;
      Group_ctx.acc_sub acc w commitment.c1);
  Group_ctx.equation sink (fun acc w ->
      Group_ctx.acc_add acc (Sc.mul w msg) Group_ctx.g;
      Group_ctx.acc_add acc (Sc.mul w rand) Group_ctx.h;
      Group_ctx.acc_sub acc w commitment.c2)

let verify commitment opening =
  let sink = Group_ctx.serial () in
  equations sink commitment opening;
  Group_ctx.verdict sink

(* Verify many (commitment, opening) pairs at once; soundness 2^-128
   per batch (see Dd_group.Batch). Vartime, public data only. *)
let verify_batch rng (items : (t * opening) array) =
  match Array.length items with
  | 0 -> true
  | 1 -> let c, o = items.(0) in verify c o
  | _ ->
    let sink = Group_ctx.folded rng in
    Array.iter (fun (c, o) -> equations sink c o) items;
    Group_ctx.verdict sink

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
