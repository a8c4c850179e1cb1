(** End-to-end election harness over the discrete-event simulator: VC
    cluster, BB replicas, trustees, and closed-loop [d]-patient voting
    clients, with Byzantine fault injection and the paper's measurement
    points.

    Both fidelity levels share the identical vote-collection protocol.
    [Source] consumes a {!Node_source.t} as-is, exactly as the serving
    runtime does: {!Node_source.of_setup} serves an in-memory EA setup
    (tests, examples) and {!Node_source.of_layout} a sealed state dir,
    both with real cryptography end to end and every node serving from
    its own sealed segment. [Modeled] PRF-derives ballots from the run
    seed and charges the post-election crypto to the simulated clock
    from {!Cost_model}, scaling to hundreds of millions of registered
    ballots. The node RNGs and the consensus coin come from {!params},
    never from the source; the voters are a {!Voter.Pool}. *)

module Net = Dd_sim.Net
module Stats = Dd_sim.Stats

type vote_intent = {
  vi_serial : int;
  vi_choice : int;
}

(** Byzantine VC behaviors, re-exported from {!Adversary} (see there
    for the attack each one mounts). *)
type byzantine_behavior = Adversary.behavior =
  | Silent          (** crash-faulty: never responds to anything *)
  | Drop_receipts   (** runs the protocol but never answers voters *)
  | Equivocate      (** endorses conflicting codes, attacking UCERT uniqueness *)
  | Corrupt_shares  (** flips bytes in disclosed VOTE_P receipt shares *)
  | Byzantine_consensus  (** corrupts/withholds Vote Set Consensus traffic *)
  | Malformed_wire  (** re-encodes outgoing messages with a flipped byte *)

type fidelity =
  | Source of Node_source.t
      (** real election data, e.g. {!Node_source.of_setup} or
          {!Node_source.of_layout} *)
  | Modeled  (** PRF ballots keyed by [params.seed], MAC authenticators *)

type params = {
  cfg : Types.config;
  fidelity : fidelity;
  seed : string;                (** fixes the entire run *)
  latency : Net.latency_model;
  costs : Cost_model.t;
  concurrent_clients : int;     (** the paper's "cc" *)
  votes : vote_intent list;
  byzantine_vc : (int * byzantine_behavior) list;
  byzantine_bb : int list;      (** BB nodes serving tampered state (majority reads must mask them) *)
  faults : Dd_sim.Fault_plan.t; (** timed partitions, crashes, link faults *)
  voter_patience : float;       (** the [d] of [d]-patience *)
  retry_cap : float;            (** attempt k waits patience * min(2^(k-1), cap) *)
  blacklist_rounds : int;       (** full passes over the cluster before a voter gives up *)
  coin : Dd_consensus.Binary_batch.coin;
  end_after : float option;     (** fixed voting hours; [None] = end when all clients finish *)
  run_vsc : bool;               (** [false] stops after vote collection (Fig. 4 measurements) *)
}
(** Durability follows the fault plan: when it holds a recovering crash
    of a protocol node, every node gets a durable in-memory device
    (its journal) and [Crash { recover = Some _ }] specs become true
    power-loss cold restarts; otherwise nodes run memory-only (the
    scale benchmarks must not pay the logging cost). *)

val default_params : ?fidelity:fidelity -> Types.config -> votes:vote_intent list -> params

type phase_times = {
  mutable t_first_submit : float;
  mutable t_last_receipt : float;
  mutable t_end : float;
  mutable t_vsc_done : float;
  mutable t_encrypted_tally : float;
  mutable t_published : float;
}

type result = {
  latencies : Stats.sample_set;   (** per successful vote, submit-to-receipt *)
  receipts_ok : int;
  receipts_bad : int;
  rejections : int;
  exhausted : int;
  phases : phase_times;
  throughput : float;             (** receipts per virtual second of vote collection *)
  tally : Types.tally option;
  expected_tally : Types.tally;
  successes : (int * string) list;
  attempt_counts : int array;   (** index k: voters needing exactly k+1 submissions *)
  messages : int;
  bytes : int;
  bb_nodes : Bb_node.t list;      (** full mode only (for auditing) *)
  vc_submit_sets : (int * (int * string) list) list;
  timed_out : bool;               (** hit the virtual-time cap with events still queued *)
  dropped : int;                  (** messages lost to drops, cuts, crashes *)
  ucert_conflicts : (int * string * string) list;
  (** conflicting valid UCERTs observed by honest nodes, as (serial,
      certified code, conflicting code) — the over-threshold
      equivocation detection signal; empty with at most [fv] Byzantine
      collectors *)
  devices : (string * Dd_store.Device.Mem.backing) list;
  (** each durable node's device backing, labeled ["vc0"], ["bb1"],
      ["trustee2"], …, for crash-dump inspection; empty without
      durability *)
}

(** {2 Simulated-network topology}

    [run] registers network nodes densely in creation order — VC nodes
    first, then BB nodes, trustees, and clients — so fault plans can
    target them by id. VC [i] lives on machine [i mod 4] (six cores each), BB
    [j] on machine [100 + j], trustee [k] on [200 + k], client [c] on
    [1000 + c]. *)

val vc_net_node : params -> int -> Dd_sim.Net.node_id
val bb_net_node : params -> int -> Dd_sim.Net.node_id
val trustee_net_node : params -> int -> Dd_sim.Net.node_id

(** The physical machine hosting VC node [i]. *)
val vc_machine : params -> int -> int

(** The per-vote intents' ground-truth tally (duplicate serials count
    once). *)
val expected_tally : Types.config -> vote_intent list -> Types.tally

(** Simulated service cost of handling a VC message (exposed for the
    benchmark's cost-model audit). *)
val vc_msg_cost : Cost_model.t -> Types.config -> Messages.vc_msg -> float

(** Run the election to completion (deterministic in [params.seed]). *)
val run : params -> result
