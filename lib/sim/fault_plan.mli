(** Declarative, time-windowed fault schedules for {!Net}.

    A fault plan is a list of fault specifications — partitions,
    per-link overrides, crashes, reordering — each active
    over a half-open window [[from_, until_)] of virtual time. The plan
    is pure data: {!Net.send} consults it on every send and samples any
    probabilistic faults from the engine's seeded DRBG, so runs remain
    pure functions of their seed.

    Same-machine (loopback) deliveries are exempt from every link-level
    fault (partitions, drops, delays, duplication, reordering): local
    channels in the paper's deployment model are reliable. Crashes
    still apply — a crashed node neither sends nor receives anything,
    including to and from itself over loopback. A crash is a power
    loss: in-memory state dies with the process, and recovery is a
    cold restart from whatever the node had synced to its durable
    device (see [Dd_store]). *)

type window = { from_ : float; until_ : float }

type spec =
  | Partition of { machines : int list; w : window }
  | Link of {
      src : int option;
      dst : int option;
      drop : float;
      extra_delay : float;
      jitter : float;
      duplicate : float;
      w : window;
    }
  | Crash of { node : int; at : float; recover : float option }
  | Reorder of { prob : float; horizon : float; w : window }

type t = spec list

val none : t

(** Cut every link between the listed machines and all other machines
    during the window. Links within the group, and within the rest of
    the world, are unaffected. *)
val partition : machines:int list -> from_:float -> until_:float -> spec

(** Per-link override, matched on node ids ([None] = wildcard): the
    one spelling of drop, delay and duplication. Overlapping links'
    [drop]/[duplicate] compose as independent fault sources;
    [extra_delay] (plus uniform [[0, jitter)]) adds to the sampled link
    latency, so a wildcard link with only [extra_delay] is a flat delay
    spike on every inter-machine link. *)
val link :
  ?src:int -> ?dst:int -> ?drop:float -> ?extra_delay:float ->
  ?jitter:float -> ?duplicate:float -> from_:float -> until_:float ->
  unit -> spec

(** Node [node] loses power at [at]: it sends and receives nothing and
    its in-memory state is lost. With [recover] the harness restarts it
    at that time from its durable device (synced state only — the
    unsynced log tail is truncated, possibly mid-record); [None] means
    it never comes back. *)
val crash : ?recover:float -> node:int -> at:float -> unit -> spec

(** Each inter-machine message is independently held back by uniform
    [[0, horizon)] with probability [prob] — bounded reordering. *)
val reorder : prob:float -> horizon:float -> from_:float -> until_:float -> spec

(** Is [node] crashed at virtual time [at]? *)
val crashed : t -> node:int -> at:float -> bool

(** Every [Crash] spec in the plan, as [(node, at, recover)] — the
    harness walks these to schedule device power-loss and cold-restart
    events at the right instants. *)
val crash_specs : t -> (int * float * float option) list

(** The combined condition of one directed link at one instant:
    [drop]/[duplicate] are the probabilities of every matching link
    composed; [reorder_*] describe the bounded-reordering lottery. *)
type link_condition = {
  cut : bool;
  drop : float;
  extra_delay : float;
  jitter : float;
  duplicate : float;
  reorder_prob : float;
  reorder_horizon : float;
}

(** The no-fault condition. *)
val clear : link_condition

val link_condition :
  t -> src:int -> src_machine:int -> dst:int -> dst_machine:int ->
  at:float -> link_condition

(** Human-readable summary, for chaos-runner replay lines. *)
val describe : t -> string
