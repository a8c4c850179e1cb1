(* Chaum-Pedersen proofs of discrete-log equality [CP92]: given bases
   (g1, g2) and claims (h1, h2), prove knowledge of x with h1 = x*g1
   and h2 = x*g2. Presented as an explicit 3-move sigma protocol
   because D-DEMOS splits the moves across time: the EA publishes the
   first move at setup, the voters' A/B coins provide the challenge,
   and the trustees (holding the shared prover state) publish the
   response after the election. *)

module Sc = Dd_bignum.Sc
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve

type statement = {
  g1 : Curve.point;
  g2 : Curve.point;
  h1 : Curve.point;
  h2 : Curve.point;
}

type first_move = {
  t1 : Curve.point;
  t2 : Curve.point;
}

let respond ~state ~witness ~challenge = Sc.add state (Sc.mul challenge witness)

(* A complete transcript. *)
type instance = {
  stmt : statement;
  fm : first_move;
  challenge : Sc.t;
  response : Sc.t;
}

(* The transcript's two equations z*g - t - c*h = O, for (g1, t1, h1)
   and (g2, t2, h2), in that order: each adds w*z on g and subtracts w
   on t and w*c on h. Terms on the fixed generators G and H collapse
   into the accumulator's comb-table legs (ballot-proof statements
   always have g1 = G and g2 = H). Verification sees only published
   transcript data, so the variable-time paths are fine (curve.mli
   contract). *)
let equations sink (inst : instance) =
  let eq g t h acc w =
    Group_ctx.acc_add acc (Sc.mul w inst.response) g;
    Group_ctx.acc_sub acc w t;
    Group_ctx.acc_sub acc (Sc.mul w inst.challenge) h
  in
  Group_ctx.equation sink (eq inst.stmt.g1 inst.fm.t1 inst.stmt.h1);
  Group_ctx.equation sink (eq inst.stmt.g2 inst.fm.t2 inst.stmt.h2)
