(** The voter (Section III-F): no client-side cryptography. She flips a
    coin to choose ballot part A or B (the coin doubles as ZK challenge
    entropy), submits the chosen option's vote code, and compares the
    returned receipt with the printed one. [d]-patience (Definition 1)
    governs retry against unresponsive collectors. *)

type plan = {
  ballot : Types.ballot;
  choice : int;              (** option index *)
  part : Types.part_id;      (** the coin flip *)
}

(** Flip the part coin and fix the voting plan. *)
val make_plan : Dd_crypto.Drbg.t -> ballot:Types.ballot -> choice:int -> plan

(** The vote code this plan submits. *)
val vote_code : plan -> string

(** Compare a returned receipt against the printed one (by eye, in the
    paper; constant-time here). *)
val receipt_valid : plan -> string -> bool

(** The voter's retry policy on top of [d]-patience. *)
type policy = {
  patience : float;          (** the [d] of [d]-patience, in seconds *)
  cap : float;               (** backoff multiplier ceiling *)
  blacklist_rounds : int;
      (** how many times a voter may clear an exhausted blacklist and
          start over (after a backoff wait) before giving up; 1 is a
          single pass over the nodes *)
}

(** Patience 20 s, cap 8, one blacklist round. *)
val default_policy : policy

(** [retry_delay rng ~patience ~attempt] is how long attempt [attempt]
    (1-based) waits for a receipt before giving up on its node:
    [patience * min(2^(attempt-1), cap)], stretched by a relative
    jitter drawn uniformly from [[0, jitter)] (default 0.1) —
    exponential backoff on top of [d]-patience, so retry storms against
    a restarting or partitioned cluster decorrelate. Attempt 1 waits
    plain [patience] (up to jitter). *)
(* lint: allow unused-export — test_chaos retry-delay tests *)
val retry_delay :
  ?cap:float -> ?jitter:float -> Dd_crypto.Drbg.t ->
  patience:float -> attempt:int -> float

(** Choose a VC node uniformly among the non-blacklisted ones; [None]
    when every node has been blacklisted. *)
val pick_node : Dd_crypto.Drbg.t -> nv:int -> blacklist:int list -> int option

(** What a voter hands to a third-party auditor: the cast code (reveals
    nothing about the choice) and the entire unused part (unrelated to
    the used one) — delegation without sacrificing privacy. *)
type audit_info = {
  a_serial : int;
  a_cast_code : string;
  a_unused_part : Types.part_id;
  a_unused_lines : Types.ballot_line array;
}

val audit_info : plan -> audit_info

(** The paper's closed-loop voter clients (Section V), sans-IO, shared
    by the simulator and the serving load generator. Client [c] draws
    from its own DRBG seeded ["client|<seed>|<c>"]: {!make_plan} when
    it starts a vote, then {!pick_node} and {!retry_delay} at every
    submit. Intents are dealt to clients round-robin. A bad receipt
    blacklists the node and resubmits elsewhere; a patience timeout
    does the same; an exhausted blacklist starts a new round after a
    backoff wait, up to [blacklist_rounds], then the vote is abandoned.
    Replies for a request that is no longer pending (stale) or that
    belongs to another client (misrouted) are dropped. *)
module Pool : sig
  type intent = { serial : int; choice : int }

  (** What a driver does on the pool's behalf. *)
  type effects = {
    send : client:int -> node:int -> req:int -> serial:int -> vote_code:string -> unit;
    arm_patience : delay:float -> (unit -> unit) -> unit;
        (** run the callback after [delay] if the driver models time
            (the timeout is a no-op once the request was answered);
            a driver without timers may drop it *)
    wait : delay:float -> (unit -> unit) -> unit;
        (** run the callback after [delay]; at once without timers *)
    now : unit -> float;  (** stamps latencies and the submit window *)
    finished : unit -> unit;  (** every client's queue is done *)
  }

  type t

  val create :
    ?policy:policy -> seed:string -> clients:int -> nv:int ->
    ballot_for:(int -> Types.ballot) -> effects -> intent list -> t

  (** Number of clients ([max 1 clients]). *)
  val clients : t -> int

  (** Start client [c] on its first intent (or finish it at once). *)
  val start : t -> int -> unit

  (** A reply delivered to client [client] for request [req]. *)
  val on_reply : t -> client:int -> req:int -> Types.vote_outcome -> unit

  (** Outcome counters: verified receipts, receipts that mismatched
      the printed one, rejections by a node, votes abandoned with
      every node blacklisted, and requests still awaiting a reply. *)
  val receipts_ok : t -> int
  val receipts_bad : t -> int
  val rejections : t -> int
  val exhausted : t -> int
  val in_flight : t -> int

  (** (serial, cast vote code) of every vote whose receipt verified. *)
  val successes : t -> (int * string) list

  (** Submit-to-receipt latency of every verified receipt. *)
  val latencies : t -> Dd_sim.Stats.sample_set

  (** First submit and last verified receipt ([infinity] / [0.] when
      none). *)
  val first_submit : t -> float
  val last_receipt : t -> float

  (** [attempt_counts.(k)] = voters who needed exactly [k+1]
      submissions. *)
  val attempt_counts : t -> int array
end
