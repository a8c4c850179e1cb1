(** Closed-loop deterministic load generator for the serving runtime.

    Drives the simulator's own voter clients, {!Ddemos.Voter.Pool}, so
    a serve run and an [Election.run] with the same seed and vote list
    cast the same codes at the same nodes. That is what makes
    transcript equivalence testable: the backends must agree because
    their inputs agree bit-for-bit. This module only frames,
    multiplexes and decodes.

    Closed loop: each client keeps exactly one vote in flight and
    submits its next one the moment the reply lands. Offered load is
    set by the client count, the paper's Fig.-4 methodology. There are
    no timers: [d]-patience is never armed and a blacklist round
    restarts at once. A reply counts only for the client whose
    connection carried it. *)

type params = {
  lg_clients : int;
  lg_seed : string;
  lg_max_steps : int;     (** driver iterations before declaring a stall *)
}

(** The simulator's defaults: 40 clients, seed "election-seed"; the
    retry policy is {!Ddemos.Voter.default_policy}. *)
val default_params : params

type vote_intent = Ddemos.Voter.Pool.intent = { serial : int; choice : int }

type result = {
  receipts_ok : int;
  receipts_bad : int;        (** receipt mismatched the printed one *)
  rejections : int;          (** node said no (includes overload sheds) *)
  exhausted : int;           (** every node blacklisted; vote abandoned *)
  lost : int;                (** in flight when the driver stalled *)
  successes : (int * string) list;   (** (serial, cast vote code) *)
}

(** [run ~conn_for ~step ~ballot_for ~nv ~votes ()] submits every
    intent and drives the server via [step] until all replies landed
    (or the step budget is spent). [conn_for ~client ~node] opens (or
    returns) the byte-stream connection client [client] uses to reach
    VC node [node] — pipes in-process, sockets across them — once per
    pair, kept as a {!Frame.link}. A link that closes (poisoned
    decoder, dead transport) loses the votes queued on it. *)
val run :
  ?params:params ->
  conn_for:(client:int -> node:int -> Transport.conn) ->
  step:(unit -> int) ->
  ballot_for:(int -> Ddemos.Types.ballot) ->
  nv:int ->
  votes:vote_intent list ->
  unit -> result
