(** Vote Collector node: Algorithm 1 (the voting protocol) plus Vote
    Set Consensus (Section III-E), as a sans-IO state machine — all
    effects flow through the [env] callbacks, so tests drive it
    directly and the simulator supplies transports. *)

type env = {
  me : int;
  cfg : Types.config;
  keys : Auth.keys;                (** VC clique; index [nv] is the EA *)
  store : Ballot_store.t;
  now : unit -> float;
  election_start : float;
  election_end : unit -> float;
  send_vc : dst:int -> Messages.vc_msg -> unit;
  reply : client:int -> req:int -> Types.vote_outcome -> unit;
  send_bb : dst:int -> Messages.bb_msg -> unit;
  rng : Dd_crypto.Drbg.t;
  consensus_coin : Dd_consensus.Binary_batch.coin;
  verify_share_tags : bool;        (** [false] only in modeled runs without EA tags *)
  verify_tag : (signer:int -> string -> Auth.tag -> bool) option;
      (** Override for authenticator checks on the hot path. [None]
          verifies each tag directly with {!Auth.verify} (and UCERTs
          with the per-certificate batch in
          {!Messages.verify_ucert}). The serving runtime injects a
          caching verifier backed by cross-message batch verification;
          any override MUST be semantically identical to [Auth.verify]
          — it only amortizes, never weakens. *)
  durable : Dd_store.Device.t option;
      (** Journal device; [None] runs the node memory-only (the
          scale benchmarks). With a device, every crash-critical
          transition is made durable before any dependent send — in
          particular the endorsed vote code before an ENDORSEMENT
          signature leaves, which is what keeps a crash-and-restart
          from minting the adversary a second UCERT. *)
}

type t

type phase = Voting | Vsc | Submitted

(** Fresh node; journals to [env.durable] when it is set. *)
val create : env -> t

(** Feed any protocol message (from voters or peer collectors).

    [Recover_request] means two things. During [Voting] it is a pull: a
    peer could not match this node's elided VOTE_P, and gets this
    node's full VOTE_P (its share and the UCERT) for each listed serial
    whose UCERT the node holds and whose VOTE_P it has sent, once per
    (peer, serial). The node sends one itself, naming one serial, to
    the sender of an elided VOTE_P it cannot match. Afterwards it is
    Vote Set Consensus recovery, answered with [Recover_response]. *)
val handle : t -> Messages.vc_msg -> unit

(** Election end: announce known votes, enter batched Bracha consensus,
    recover missing codes, submit the agreed set + msk share to the BB
    nodes. Driven by the node's owner when its clock passes Tend. *)
val start_vote_set_consensus : t -> unit

val phase : t -> phase
val votes_accepted : t -> int
val receipts_issued : t -> int

(** Ballots this node keeps state for. Hostile input never grows it:
    handlers reject serials outside the election and create a ballot
    only for a store-valid code or a verified UCERT. *)
val ballot_count : t -> int

(** Valid uniqueness certificates seen for a code conflicting with one
    this node already holds certified, as (serial, our code, their
    code). Always empty with at most [fv] Byzantine collectors
    (Section III-D); non-empty means equivocation beyond the fault
    threshold was detected. *)
val ucert_conflicts : t -> (int * string * string) list

(** Per-ballot consensus outcomes ([None] until decided). *)
val decisions : t -> bool option array

(** Canonical encoding of the node's observable durable state (sorted,
    so any two nodes in the same state encode to the same bytes), as
    {!Bb_node.observable} and {!Trustee.observable}; the recovery tests
    compare it. Transient collection state — in-flight endorsement
    gathering, waiting clients, live consensus instances — is excluded
    by design: a restarted node abandons those and the protocol's
    retries rebuild them. *)
val observable : t -> string

(** Cold restart from [env.durable]: replay the journal's whole clean
    prefix through the reducer ({!Dd_store.Wal.open_log} first cuts a
    torn tail), then re-issue duties whose sends the crash may have
    swallowed (submission resend, re-announce).
    A node that crashed mid-consensus does not rejoin the running
    instance — it has no protocol state to resume, and restarting from
    scratch would equivocate; the remaining quorum carries the round.
    Equivalent to {!create} when [env.durable] is [None] or empty. *)
val recover : env -> t
