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
  election_end : unit -> float;
  send_vc : dst:int -> Messages.vc_msg -> unit;
  reply : client:int -> req:int -> Types.vote_outcome -> unit;
  send_bb : dst:int -> Messages.bb_msg -> unit;
  rng : Dd_crypto.Drbg.t;
  consensus_coin : Dd_consensus.Binary_batch.coin;
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
          scale benchmarks). Every crash-critical transition is
          committed — applied through the one reducer that replay
          also uses, then journaled — before any dependent send: in
          particular the endorsed vote code before an ENDORSEMENT
          signature leaves, which is what keeps a crash-and-restart
          from minting the adversary a second UCERT. *)
}

type t

type phase = Voting | Vsc | Submitted

(** The node [env.durable]'s journal describes, journaling to it from
    then on: fresh on an absent or empty device, otherwise a cold
    restart. The journal's whole clean prefix replays through the
    reducer ({!Dd_store.Wal.open_log} first cuts a torn tail), then
    duties whose sends the crash may have swallowed are re-issued
    (submission resend, re-announce). A node that crashed
    mid-consensus does not rejoin the running instance — it has no
    protocol state to resume, and restarting from scratch would
    equivocate; the remaining quorum carries the round. *)
val create : env -> t

(** Feed any protocol message (from voters or peer collectors).

    A node with a voter waiting and the UCERT but no receipt asks every
    peer for its share, once per ballot: it sends each its VOTE_P. That
    is the UCERT's former, or a node the voter retries at. Every other
    node answers each VOTE_P it accepts with one SHARE, to that VOTE_P's
    sender only, so only a node that asked reconstructs the receipt.

    A share counts only for the line this node holds the code on (its
    own lookup, not the sender's claim), and only against a UCERT. A
    VOTE_P's counts against one this node holds for exactly that serial
    and code, or else the message's. A VOTE_P carries the certificate
    without the receiving signer's own endorsement. A signer completes
    it with the tag it signed on ENDORSE, kept in memory and never
    verified, and only if it durably endorsed exactly this code; the
    UCERT it stores and journals is always whole. A node that restarted
    since it endorsed holds no such tag and does not sign again: it
    pulls the certificate from the sender. A SHARE counts against the
    UCERT this node holds for the serial, and only if its (part, pos) is
    the line of that UCERT's code; holding none, or one for a code on
    another line, the node pulls. An ENDORSEMENT counts only if its tag
    signs the code this node is collecting.

    [Recover_request] means two things. During [Voting] it is a pull: a
    peer could not match this node's SHARE or complete its certificate,
    and gets this node's full VOTE_P (its share and the UCERT) for each
    listed serial whose UCERT the node holds and whose share it has
    disclosed, once per (peer, serial). The node sends one itself,
    naming one serial, to the sender of a SHARE it cannot match or of a
    certificate short of a quorum that it cannot complete. Afterwards it
    is Vote Set Consensus recovery, answered with [Recover_response].

    [Announce] lists codes only. The node sends the announcer one
    [Recover_request] naming the serials in the election whose
    announced code it holds no UCERT on, and counts the announcer
    towards starting consensus only once its [Recover_response] has
    been adopted (at once if nothing was pulled). A [Recover_response]
    is adopted in any phase, so a node whose clock lags enters its own
    Vote Set Consensus with what it pulled. *)
val handle : t -> Messages.vc_msg -> unit

(** The authenticator checks {!handle} may make on [msg] in this
    node's current state, as (signer, body, tag): an ENDORSEMENT's tag
    over the code the node is collecting, the EA's tag over a disclosed
    share (when the store's lines carry share tags,
    {!Ballot_store.share_tags}), and each endorsement of a
    carried UCERT. A host batch-verifies them ahead of [handle] and
    answers [env.verify_tag] from the verdicts. *)
val obligations : t -> Messages.vc_msg -> (int * string * Auth.tag) list

(** Election end: announce the codes this node holds UCERTs for, enter
    batched Bracha consensus once [Nv - fv] announcers count, recover
    the codes of ballots decided voted that it lacks, submit the agreed
    set + msk share to the BB nodes. Driven by the node's owner when its
    clock passes Tend. *)
val start_vote_set_consensus : t -> unit

val phase : t -> phase
val votes_accepted : t -> int
val receipts_issued : t -> int

(** Ballots this node keeps state for. Hostile input never grows it:
    handlers reject serials outside the election and create a ballot
    only for a store-valid code or a verified UCERT. *)
(* lint: allow unused-export — test_vc_node checks hostile input never grows state *)
val ballot_count : t -> int

(** Valid uniqueness certificates seen for a code conflicting with one
    this node already holds certified, as (serial, our code, their
    code). Always empty with at most [fv] Byzantine collectors
    (Section III-D); non-empty means equivocation beyond the fault
    threshold was detected. *)
val ucert_conflicts : t -> (int * string * string) list

(** The vote set this node submits to the BB nodes: the (serial, code)
    of every ballot Vote Set Consensus decided voted, sorted by serial.
    [None] until the node has decided every ballot and recovered the
    codes it lacked. *)
val agreed_set : t -> (int * string) list option

(** Per-ballot consensus outcomes ([None] until decided). *)
val decisions : t -> bool option array

(** Canonical encoding of the node's observable durable state (sorted,
    so any two nodes in the same state encode to the same bytes), as
    {!Bb_node.observable} and {!Trustee.observable}; the recovery tests
    compare it. Transient collection state — in-flight endorsement
    gathering, waiting clients, live consensus instances — is excluded
    by design: a restarted node abandons those and the protocol's
    retries rebuild them. *)
(* lint: allow unused-export — test_storage and test_vc_node compare replayed state *)
val observable : t -> string
