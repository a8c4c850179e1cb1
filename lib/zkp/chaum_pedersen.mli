(** Chaum-Pedersen discrete-log-equality sigma protocol, with the three
    moves exposed separately (D-DEMOS spreads them over the election:
    EA commits, voter coins challenge, trustees respond). *)

module Nat = Dd_bignum.Nat
module Curve = Dd_group.Curve

type statement = {
  g1 : Curve.point;
  g2 : Curve.point;
  h1 : Curve.point;  (** claimed [x*g1] *)
  h2 : Curve.point;  (** claimed [x*g2] *)
}

type first_move = {
  t1 : Curve.point;
  t2 : Curve.point;
}

type prover_state = Nat.t

(** First move; keep the returned state secret until the challenge. *)
(* lint: allow unused-export — test_zkp runs the Sigma protocol's moves *)
val commit :
  Dd_crypto.Drbg.t -> statement -> prover_state * first_move

(** Third move: [state + challenge * witness]. *)
val respond : state:prover_state -> witness:Nat.t -> challenge:Nat.t -> Nat.t

val verify :
  statement -> first_move -> challenge:Nat.t -> response:Nat.t -> bool

(** A complete transcript, as folded into a batch by {!accumulate}. *)
type instance = {
  stmt : statement;
  fm : first_move;
  challenge : Nat.t;
  response : Nat.t;
}

(** Fold one transcript's two verification equations into an MSM
    accumulator under fresh random weights from the DRBG. Lets callers
    (e.g. ballot-proof batching) combine many proofs into one
    {!Dd_group.Group_ctx.acc_check}. {b Variable time} — public
    transcripts only. *)
val accumulate : Dd_group.Group_ctx.msm_acc -> Dd_crypto.Drbg.t -> instance -> unit

(** Accepting transcript for a chosen challenge without the witness
    (honest-verifier zero-knowledge simulator; used in OR proofs). *)
(* lint: allow unused-export — test_zkp runs the Sigma protocol's moves *)
val simulate :
  Dd_crypto.Drbg.t -> statement -> challenge:Nat.t ->
  first_move * Nat.t
