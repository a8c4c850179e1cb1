(** Network and CPU model: latency-sampled links (LAN / WAN /
    loopback), per-node multi-core CPU queues, and a machine
    co-location contention multiplier reproducing the paper's memory-bus
    saturation at four logical nodes per physical machine. Every fault
    comes from a declarative {!Fault_plan}: timed partitions, per-link
    drop/delay/duplicate overrides, crash(-recover) schedules and
    bounded reordering.

    Same-machine (loopback) deliveries are reliable: no link-level
    fault applies to them. Crashed nodes send and receive nothing, loopback included.

    Messages are closures, so the model is protocol-agnostic. *)

type node_id = int

type latency_model = {
  loopback : float;
  lan_base : float;
  lan_jitter : float;
  wan_extra : float;
}

(** Gigabit-LAN defaults (~0.1 ms + jitter). *)
val lan : latency_model

(** LAN plus a 25 ms WAN penalty between distinct machines, the paper's
    emulated US coast-to-coast figure. *)
val wan : latency_model

type t

val create :
  ?latency:latency_model -> ?faults:Fault_plan.t -> Engine.t -> t

val now : t -> float

(** Register a node on a physical machine with a core count; returns
    its id. Ids are dense, starting at 0. *)
val add_node : t -> machine:int -> cores:int -> node_id

(** Run [action] on [dst]'s CPU for [cost] seconds of service time
    (queued behind earlier work; subject to contention). *)
val exec : t -> dst:node_id -> cost:float -> (unit -> unit) -> unit

(** Send a message whose handling costs [cost] CPU seconds at the
    destination; [action] runs at handling completion. Inter-machine
    sends are subject to link latency and the fault plan; same-machine
    sends only to loopback latency (and endpoint crashes). *)
val send : t -> src:node_id -> dst:node_id -> cost:float -> (unit -> unit) -> unit

(** Is the node not crashed (per the fault plan) at the current virtual
    time? *)
val node_up : t -> node_id -> bool

val messages_sent : t -> int

(** Messages lost to drops, partition cuts, and endpoint crashes. *)
val messages_dropped : t -> int
