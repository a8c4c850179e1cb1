(* Chaum-Pedersen proofs of discrete-log equality [CP92]: given bases
   (g1, g2) and claims (h1, h2), prove knowledge of x with h1 = x*g1
   and h2 = x*g2. Presented as an explicit 3-move sigma protocol
   because D-DEMOS splits the moves across time: the EA publishes the
   first move at setup, the voters' A/B coins provide the challenge,
   and the trustees (holding the shared prover state) publish the
   response after the election. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular
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

(* The prover's secret nonce, kept until the challenge arrives. *)
type prover_state = Nat.t

let commit rng (st : statement) : prover_state * first_move =
  let w = Curve.random_scalar rng in
  (w, { t1 = Group_ctx.mul w st.g1; t2 = Group_ctx.mul w st.g2 })

let respond ~(state : prover_state) ~witness ~challenge =
  let fn = Curve.scalar_field in
  Modular.add fn state (Modular.mul fn challenge witness)

(* Verification sees only published transcript data, so the
   variable-time multiplication paths are fine (curve.mli contract). *)
let verify (st : statement) (fm : first_move) ~challenge ~response =
  let check g t h =
    Curve.equal (Group_ctx.mul_vartime response g)
      (Curve.add t (Group_ctx.mul_vartime challenge h))
  in
  check st.g1 fm.t1 st.h1 && check st.g2 fm.t2 st.h2

(* A complete transcript, ready for batch verification. *)
type instance = {
  stmt : statement;
  fm : first_move;
  challenge : Nat.t;
  response : Nat.t;
}

(* Fold both verification equations of [inst] into [acc] under fresh
   random weights: for each equation z*g - t - c*h = O, accumulate
   w*z on g, subtract w on t and w*c on h. Terms on the fixed
   generators G and H collapse into the accumulator's comb-table legs
   (ballot-proof statements always have g1 = G and g2 = H). *)
let accumulate acc rng (inst : instance) =
  let fn = Curve.scalar_field in
  let eq g t h =
    let w = Dd_group.Batch.weight rng in
    Group_ctx.acc_add acc (Modular.mul fn w (Modular.reduce fn inst.response)) g;
    Group_ctx.acc_sub acc w t;
    Group_ctx.acc_sub acc (Modular.mul fn w (Modular.reduce fn inst.challenge)) h
  in
  eq inst.stmt.g1 inst.fm.t1 inst.stmt.h1;
  eq inst.stmt.g2 inst.fm.t2 inst.stmt.h2

(* Verify many transcripts at once: 2n equations, one MSM (plus the two
   comb legs). Soundness 2^-128 per batch (see Batch). *)
let verify_batch rng (instances : instance array) =
  match Array.length instances with
  | 0 -> true
  | 1 ->
    let i = instances.(0) in
    verify i.stmt i.fm ~challenge:i.challenge ~response:i.response
  | _ ->
    let acc = Group_ctx.msm_acc () in
    Array.iter (accumulate acc rng) instances;
    Group_ctx.acc_check acc

(* Simulate an accepting transcript for a chosen challenge (used by the
   OR composition for the branch the prover cannot prove). *)
let simulate rng (st : statement) ~challenge =
  let z = Curve.random_scalar rng in
  let fm =
    { t1 = Curve.sub (Group_ctx.mul z st.g1) (Group_ctx.mul challenge st.h1);
      t2 = Curve.sub (Group_ctx.mul z st.g2) (Group_ctx.mul challenge st.h2) }
  in
  (fm, z)
