(** Sans-IO durable-storage device: an append-only log with an explicit
    durability barrier. A durable node's journal ({!Wal}) lives in this
    log and is its only durable state. Node code sees only this closure
    record; the simulator supplies {!Mem} and offline tooling supplies
    {!File_device}. *)

type t = {
  log_append : string -> unit;
      (** Append bytes to the volatile tail; durable only after
          [log_sync]. *)
  log_sync : unit -> unit;
      (** Durability barrier (fsync): everything appended so far
          survives a crash. *)
  log_contents : unit -> string;  (** The durable log, in append order. *)
  log_size : unit -> int;  (** Durable log length in bytes. *)
  log_read : pos:int -> len:int -> string;
      (** Random-access window into the durable log, clamped to its
          bounds — the segment reader's way of decoding one chunk
          without materializing the file. *)
  log_reset : string -> unit;
      (** Atomically replace the whole log (write-temp-then-rename): a
          crash leaves either the old or the new log. {!Wal.open_log}
          uses it to cut a torn tail. *)
}

(** The simulator's in-memory "disk": contents survive a
    [Fault_plan.Crash { recover = Some _ }] cold restart; the unsynced
    tail does not. *)
module Mem : sig
  type backing

  val create : unit -> backing

  (** The device view of a backing. The backing outlives any node bound
      to the device — that is the whole point. *)
  val device : backing -> t

  (** Simulate power loss at this instant: the synced log survives; of
      the unsynced tail only the first [keep] bytes (default 0) reach
      the platter — a torn tail that may cut a record mid-frame. Sample
      [keep] from the run's DRBG to keep crashes seed-deterministic. *)
  val crash : ?keep:int -> backing -> unit

  (** Inspection, for the chaos harness's crash dumps and for tests. *)
  val durable_log : backing -> string
  val unsynced_log : backing -> string
  val crashes : backing -> int
  val torn_bytes : backing -> int
end
