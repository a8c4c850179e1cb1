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

(** A complete transcript. *)
type instance = {
  stmt : statement;
  fm : first_move;
  challenge : Nat.t;
  response : Nat.t;
}

(** [equations sink inst] sends the transcript's two equations,
    [response*g1 - t1 - challenge*h1 = O] and then the same over
    [(g2, t2, h2)], to [sink]. {b Variable time} — public transcripts
    only. *)
val equations : Dd_group.Group_ctx.sink -> instance -> unit

(** Both equations, each alone at weight one. *)
(* lint: allow unused-export — test_zkp's chaum-pedersen cases check transcripts with it *)
val verify :
  statement -> first_move -> challenge:Nat.t -> response:Nat.t -> bool

(** Accepting transcript for a chosen challenge without the witness
    (honest-verifier zero-knowledge simulator; used in OR proofs). *)
(* lint: allow unused-export — test_zkp runs the Sigma protocol's moves *)
val simulate :
  Dd_crypto.Drbg.t -> statement -> challenge:Nat.t ->
  first_move * Nat.t
