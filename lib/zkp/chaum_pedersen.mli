(** Chaum-Pedersen discrete-log-equality sigma protocol: its transcript
    types, the third move and the verification equations. D-DEMOS
    spreads the moves over the election: the EA commits, the voters'
    coins challenge, the trustees respond. The EA forms every first move
    as comb jobs ([Ballot_proof.first_move_jobs]), the nonce times the
    statement bases G and H. *)

module Sc = Dd_bignum.Sc
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

(** Third move: [state + challenge * witness], [state] the prover's
    secret nonce. *)
val respond : state:Sc.t -> witness:Sc.t -> challenge:Sc.t -> Sc.t

(** A complete transcript. *)
type instance = {
  stmt : statement;
  fm : first_move;
  challenge : Sc.t;
  response : Sc.t;
}

(** [equations sink inst] sends the transcript's two equations,
    [response*g1 - t1 - challenge*h1 = O] and then the same over
    [(g2, t2, h2)], to [sink]. {b Variable time} — public transcripts
    only. *)
val equations : Dd_group.Group_ctx.sink -> instance -> unit
