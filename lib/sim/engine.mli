(** Deterministic discrete-event simulation engine over virtual time
    (seconds). Execution order is a pure function of the seed: the
    event queue breaks time ties by insertion order and all randomness
    flows from one seeded DRBG. *)

type time = float
type t

val create : seed:string -> t

val now : t -> time

(** The engine's deterministic randomness source. *)
val rng : t -> Dd_crypto.Drbg.t

(** Schedule an action; times in the past are clamped to [now]. *)
val schedule_at : t -> at:time -> (unit -> unit) -> unit
val schedule_after : t -> delay:time -> (unit -> unit) -> unit

(** How a {!run} ended: [`Drained] means the queue emptied — quiescence
    — and [now] stays at the last executed event's time (it is {e not}
    advanced to [until]); [`Paused] means an event beyond [until] is
    still queued — timeout — the event stays queued, [now] is exactly
    [until], and the run may be resumed with a later limit. *)
type run_outcome = [ `Drained | `Paused ]

(** Execute events in (time, seq) order until the queue drains or the
    next event lies beyond [until]. Returns the number of events
    executed and the {!run_outcome}. Without [until] the outcome is
    always [`Drained]. *)
val run : ?until:time -> t -> int * run_outcome

