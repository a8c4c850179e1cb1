(** Bounded per-node FIFO mailbox. [push] refuses instead of growing —
    the runtime turns a refusal into explicit backpressure (an
    immediate "overloaded" rejection for client requests, a counted
    drop for peer traffic, which the protocol's retries absorb). *)

type 'a t

val create : capacity:int -> 'a t

(** [false] when full (the message was not enqueued). *)
val push : 'a t -> 'a -> bool

(** Up to [max] queued items, oldest first. *)
val drain : max:int -> 'a t -> 'a list

