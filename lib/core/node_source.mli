(** Where a cluster's election state comes from: keys, per-collector
    ballot stores, BB boards, trustee data and the voters' printed
    ballots. This is the one way a cluster receives its election data:
    the simulator's {!Election.run} and the serving runtime both build
    their nodes from this record as-is. Two backings: sealed segments
    for real cryptography ({!of_layout}, and {!in_memory} on top of it)
    and PRF-derived data ({!prf}). The record carries election data
    only — the consensus coin is the driver's choice, and no node RNG is
    seeded from an EA secret. *)

type t = {
  sv_cfg : Types.config;
  sv_keys : Auth.keys array;           (** VC clique; index nv = EA *)
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t)) option;
      (** BB init + per-node board; [None] runs without BB nodes
          (vote-collection-only benchmarks) *)
  sv_trustees : (Auth.keys array * (int -> Ea.trustee_init)) option;
      (** trustee clique + per-trustee init (read on each call);
          [None] without full cryptography *)
  sv_ballot_for : int -> Types.ballot;  (** a voter's printed ballot *)
  sv_seed : string;
      (** seeds node timers and coin draws on the serving runtime (the
          simulator seeds them from its run seed); public, never an EA
          secret *)
}

(** PRF-derived ballots with a real authenticator clique (Schnorr by
    default) — the realistic vote-collection hot path without the full
    EA setup cost. Share tags are modeled away and there are no BB
    nodes or trustees. *)
val prf : ?scheme:Auth.scheme -> Types.config -> seed:string -> t

(** Full cryptography served from an {!Election_store} state dir's
    sealed segments (the long-running deployment mode). [sv_seed] is
    ["serve|" ^ election_id]: the sealed state does not retain the EA
    seed, a secret. *)
val of_layout : devices:(string -> Dd_store.Device.t) -> Election_store.layout -> t

(** Full cryptography in one process (tests, examples, [ddemos run]):
    {!Election_store.write_setup} seals the election onto in-memory
    devices, one per segment, and {!of_layout} serves them — so this
    equals {!of_layout} over the same election sealed on disk. Voters'
    printed ballots come from [sv_ballot_for], trustee inits from
    [sv_trustees]. Raises [Invalid_argument] on an invalid
    configuration. *)
val in_memory : Types.config -> seed:string -> t
