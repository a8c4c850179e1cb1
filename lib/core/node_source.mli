(** Where a cluster's election state comes from: keys, per-collector
    ballot stores, BB boards, trustee data and the voters' printed
    ballots. Two backings, shared by both backends — the simulator's
    {!Election.run} and the serving runtime build their nodes from the
    same record: sealed segments for real cryptography ({!of_layout},
    and {!of_setup} on top of it) and PRF-derived data ({!prf}). *)

type t = {
  sv_cfg : Types.config;
  sv_gctx : Dd_group.Group_ctx.t;
  sv_keys : Auth.keys array;           (** VC clique; index nv = EA *)
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t)) option;
      (** BB init + per-node board; [None] runs without BB nodes
          (vote-collection-only benchmarks) *)
  sv_trustees : (Auth.keys array * (int -> Ea.trustee_init)) option;
      (** trustee clique + per-trustee init (read on each call);
          [None] without full cryptography *)
  sv_ballot_for : int -> Types.ballot;  (** a voter's printed ballot *)
  sv_verify_share_tags : bool;
  sv_coin : Dd_consensus.Binary_batch.coin;
  sv_seed : string;
}

(** PRF-derived ballots with a real authenticator clique (Schnorr by
    default) — the realistic vote-collection hot path without the full
    EA setup cost. Share tags are modeled away and there are no BB
    nodes or trustees. *)
val prf :
  ?scheme:Auth.scheme -> ?coin:Dd_consensus.Binary_batch.coin ->
  Types.config -> seed:string -> t

(** Full cryptography served from an {!Election_store} state dir's
    sealed segments (the long-running deployment mode). [seed] only
    drives node timers and coin draws; it defaults to a string derived
    from the election id. *)
val of_layout :
  devices:(string -> Dd_store.Device.t) ->
  ?coin:Dd_consensus.Binary_batch.coin ->
  ?seed:string ->
  Election_store.layout -> t

(** Full fidelity from an EA setup held in memory (tests, examples):
    {!Election_store.store_setup} writes it into in-memory segments,
    which {!of_layout} then serves with [seed] = the setup's seed. *)
val of_setup : ?coin:Dd_consensus.Binary_batch.coin -> Ea.setup -> t
