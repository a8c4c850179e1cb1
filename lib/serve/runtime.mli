(** The serving runtime: hosts a VC/BB node cluster behind byte-stream
    connections, scheduling per-node bounded mailboxes in deterministic
    ticks.

    Each {!step} runs one BSP tick:

    + {b pump} — drain every connection's {!Frame.link}, newest
      first, and route decoded messages to the destination node's
      mailbox, which holds [mailbox_cap] = 4096 messages. A full
      mailbox sheds: client votes get an immediate "overloaded"
      rejection (the closed loop never hangs), peer messages are
      dropped and counted (the protocol's retries absorb the loss).
    + {b process} — each node with pending input drains up to
      [batch_max] = 256 messages; with batching enabled the {!Batcher}
      settles the batch's signature obligations through one
      [Auth.verify_batch] first, then the unchanged sans-IO state
      machines consume the messages. Node sends are staged per node,
      not transmitted, so no node's output reaches another within the
      tick.
    + {b flush} — staged sends encode onto the links' backlogs, in
      node index order (deterministic byte streams). Peer traffic is
      coalesced: each VC→VC and VC→BB link's messages for the tick
      leave as one {!Mux} batch frame, cut into more only where the
      next message would push a payload past
      {!Frame.max_frame_default}, the cap every decoder enforces. A
      lone message past the cap (an ANNOUNCE, RECOVER_RESPONSE or
      VOTE_SET_SUBMIT of a large vote set) travels in pieces, which
      the receiving link joins up to the longest message an honest
      peer sends: one RECOVER_RESPONSE entry with a full UCERT per
      ballot of the election (more is counted [malformed]). The
      receiving pump routes a batch's messages in order, so every
      mailbox sees the sequence one frame per message would give.
      Client replies stay one frame each. Every link then makes one
      write of as much as its transport accepts, keeping the rest.

    A link closes when its decoder is poisoned (counted [malformed]),
    when its transport reports [alive () = false] after its last bytes
    are read, or when a client's backlog passes [out_cap] = 4 MiB (a
    slow reader) or it names a new channel id past [max_channels] =
    4096 (both counted [conns_shed]). A closed link leaves the tick:
    it is never polled again and replies still due to it are discarded.

    Inter-node traffic travels through the same framed byte pipes as
    client traffic (created internally), so every hop exercises the
    real wire path. *)

(** Where the cluster's election state comes from: the simulator's
    {!Ddemos.Node_source}, re-exported and consumed as-is. The runtime
    hosts no trustees and ignores [sv_trustees] and [sv_ballot_for];
    its VC nodes seed their RNGs from [sv_seed] and run Vote Set
    Consensus with the {!Dd_consensus.Binary_batch.Local} coin. An
    election sealed in memory is served through
    {!Ddemos.Node_source.in_memory}. *)
type source = Ddemos.Node_source.t = {
  sv_cfg : Ddemos.Types.config;
  sv_keys : Ddemos.Auth.keys array;
  sv_store_for : int -> Ddemos.Ballot_store.t;
  sv_bb : (Ddemos.Ea.bb_init * (int -> Ddemos.Board.t)) option;
  sv_trustees : (Ddemos.Auth.keys array * (int -> Ddemos.Ea.trustee_init)) option;
  sv_ballot_for : int -> Ddemos.Types.ballot;
  sv_seed : string;
}

(** {!Ddemos.Node_source.prf}: PRF ballots, a Schnorr clique by default. *)
val source_prf :
  ?scheme:Ddemos.Auth.scheme -> Ddemos.Types.config -> seed:string -> source

(** {!Ddemos.Node_source.of_layout}: full crypto from sealed segments. *)
val source_of_layout :
  devices:(string -> Dd_store.Device.t) -> Ddemos.Election_store.layout -> source

type t

(** [batching] (default [true]) enables the adaptive batch-verification
    stage; [false] verifies each signature serially, as
    [ddemos serve --no-batch] and the bench's serial ablation row do. *)
val create : ?batching:bool -> source -> t

(** A fresh in-process client connection multiplexed onto VC node
    [node]; the returned endpoint is the client's side. *)
val client_conn : ?recv_chunk:(unit -> int) -> t -> node:int -> Transport.conn

(** Attach an externally created connection (a socket) as a client
    connection feeding VC node [node]. *)
val accept : t -> node:int -> Transport.conn -> unit

(** One tick; returns the frames received plus the messages the nodes
    processed (0 only when the tick did nothing). *)
val step : t -> int

(** Step until a tick processes nothing and all queues drained (or
    100,000 ticks pass); returns the sum of the {!step} counts. *)
val run_until_idle : t -> int

(** Close the voting phase and start Vote Set Consensus on every VC
    node; keep stepping afterwards to drive it to BB submission. *)
val end_election : t -> unit

(** The guarantees ({!Ddemos.Guarantees}) a served election of [votes]
    can be judged by, once {!end_election} has been driven to idle:
    liveness from the load generator's counts (votes still in flight
    at a stall count as a timeout), UCERT uniqueness across the
    collectors, vote-set agreement over every collector's
    {!Ddemos.Vc_node.agreed_set} (one that never submitted is a
    violation), and the receipt contract against the boards'
    majority-read final set, or, for a source without boards, the
    first collector's agreed set ({!Ddemos.Vc_node.agreed_set}). *)
val guarantees :
  t -> votes:Loadgen.vote_intent list -> Loadgen.result -> Ddemos.Guarantees.violation list

val vc_node : t -> int -> Ddemos.Vc_node.t
val bb_node : t -> int -> Ddemos.Bb_node.t option

(** [observe_links t f] calls [f ~src ~dst msg] on every message a VC
    node puts on a VC→VC link, at flush and in send order, replacing
    any earlier observer. It sees the traffic and cannot change it. *)
(* lint: allow unused-export — test_serve watches VSC traffic on the peer links *)
val observe_links :
  t -> (src:int -> dst:int -> Ddemos.Messages.vc_msg -> unit) -> unit

(** {!Dd_group.Group_ctx.default}, unused; perfbench reads it. *)
val gctx : t -> Dd_group.Group_ctx.t
val config : t -> Ddemos.Types.config

type stats = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable malformed : int;      (** undecodable or misdirected frames *)
  mutable votes_shed : int;     (** client votes rejected on a full mailbox *)
  mutable peer_dropped : int;   (** peer messages dropped on a full mailbox *)
  mutable conns_shed : int;     (** slow readers and connections past [max_channels] *)
  mutable steps : int;
}

val stats : t -> stats

(** Aggregated batcher counters across the VC nodes. *)
val batch_stats : t -> Batcher.stats
