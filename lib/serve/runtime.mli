(** The serving runtime: hosts a VC/BB node cluster behind byte-stream
    connections, scheduling per-node bounded mailboxes in deterministic
    ticks.

    Each {!step} runs one BSP tick:

    + {b pump} — drain every connection, feed the frame decoders,
      route decoded messages to the destination node's mailbox. A full
      mailbox sheds: client votes get an immediate "overloaded"
      rejection (the closed loop never hangs), peer messages are
      dropped and counted (the protocol's retries absorb the loss).
    + {b process} — each node with pending input drains up to
      [batch_max] messages; with batching enabled the {!Batcher}
      settles the batch's signature obligations through one
      [Auth.verify_batch] first, then the unchanged sans-IO state
      machines consume the messages. Node sends are staged per node,
      not transmitted, so no node's output reaches another within the
      tick.
    + {b flush} — staged sends encode into per-connection bounded
      outbound queues (in node index order: deterministic byte
      streams), then every queue writes as much as its transport
      accepts. A client connection whose outbound queue overflows
      [out_cap] is a slow reader: it is closed and counted, never
      buffered unboundedly.

    Inter-node traffic travels through the same framed byte pipes as
    client traffic (created internally), so every hop exercises the
    real wire path. *)

type params = {
  batching : bool;           (** the adaptive batch-verification stage *)
  min_batch : int;           (** obligations before a batch pays for itself *)
  mailbox_cap : int;
  batch_max : int;           (** messages a node drains per tick *)
  out_cap : int;             (** outbound bytes buffered per client conn *)
  max_frame : int;
}

val default_params : params

(** Where the cluster's election state comes from: the simulator's
    {!Ddemos.Node_source}, re-exported. The runtime hosts no trustees
    and ignores [sv_trustees] and [sv_ballot_for]. *)
type source = Ddemos.Node_source.t = {
  sv_cfg : Ddemos.Types.config;
  sv_gctx : Dd_group.Group_ctx.t;
  sv_keys : Ddemos.Auth.keys array;
  sv_store_for : int -> Ddemos.Ballot_store.t;
  sv_bb : (Ddemos.Ea.bb_init * (int -> Ddemos.Board.t)) option;
  sv_trustees : (Ddemos.Auth.keys array * (int -> Ddemos.Ea.trustee_init)) option;
  sv_ballot_for : int -> Ddemos.Types.ballot;
  sv_verify_share_tags : bool;
  sv_coin : Dd_consensus.Binary_batch.coin;
  sv_seed : string;
}

(** {!Ddemos.Node_source.of_setup}. *)
val source_of_setup : ?coin:Dd_consensus.Binary_batch.coin -> Ddemos.Ea.setup -> source

(** {!Ddemos.Node_source.prf}: PRF ballots, a Schnorr clique by default. *)
val source_prf :
  ?scheme:Ddemos.Auth.scheme ->
  ?coin:Dd_consensus.Binary_batch.coin ->
  Ddemos.Types.config -> seed:string -> source

(** {!Ddemos.Node_source.of_layout}: full crypto from sealed segments. *)
val source_of_layout :
  devices:(string -> Dd_store.Device.t) ->
  ?coin:Dd_consensus.Binary_batch.coin ->
  ?seed:string ->
  Ddemos.Election_store.layout -> source

type t

val create : ?params:params -> source -> t

(** A fresh in-process client connection multiplexed onto VC node
    [node]; the returned endpoint is the client's side. *)
val client_conn : ?recv_chunk:(unit -> int) -> t -> node:int -> Transport.conn

(** Attach an externally created connection (a socket) as a client
    connection feeding VC node [node]. *)
val accept : t -> node:int -> Transport.conn -> unit

(** One tick; returns the number of frames processed. *)
val step : t -> int

(** Step until a tick processes nothing and all queues drained (or
    [max_steps]); returns total frames processed. *)
val run_until_idle : ?max_steps:int -> t -> int

(** Close the voting phase and start Vote Set Consensus on every VC
    node; keep stepping afterwards to drive it to BB submission. *)
val end_election : t -> unit

val vc_node : t -> int -> Ddemos.Vc_node.t
val bb_node : t -> int -> Ddemos.Bb_node.t option
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
  mutable conns_shed : int;     (** slow readers disconnected *)
  mutable steps : int;
}

val stats : t -> stats

(** Aggregated batcher counters across the VC nodes. *)
val batch_stats : t -> Batcher.stats
