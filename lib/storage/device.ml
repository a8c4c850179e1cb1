(* The sans-IO durable-storage abstraction. A device is a record of
   closures over an append-only *log* with an explicit durability
   barrier ([log_sync], the fsync of the model): appended bytes sit in
   a volatile tail until synced, and a crash may lose any suffix of
   that tail. A node's journal ({!Wal}) is its only durable state.

   Node code only ever sees this record, so the state machines stay
   sans-IO; the simulator plugs in {!Mem} below and real tooling plugs
   in {!File_device}. *)

type t = {
  log_append : string -> unit;       (* buffered; durable only after sync *)
  log_sync : unit -> unit;           (* durability barrier *)
  log_contents : unit -> string;     (* everything durable, in order *)
  log_size : unit -> int;            (* durable length in bytes *)
  log_read : pos:int -> len:int -> string;  (* bounded random-access window *)
  log_reset : string -> unit;        (* atomically replace the whole log *)
}

let by_name make =
  let made = Hashtbl.create 16 in
  fun name ->
    match Hashtbl.find_opt made name with
    | Some d -> d
    | None -> let d = make name in Hashtbl.add made name d; d

(* --- the in-memory "disk" for the simulator -------------------------- *)

module Mem = struct
  type backing = {
    durable : Buffer.t;              (* survived the last sync *)
    mutable unsynced : Buffer.t;     (* the page-cache tail at risk *)
    mutable crashes : int;           (* observability for the harness *)
    mutable torn_bytes : int;        (* unsynced bytes kept by the last crash *)
  }

  let create () =
    { durable = Buffer.create 256; unsynced = Buffer.create 256;
      crashes = 0; torn_bytes = 0 }

  let device b =
    { log_append = (fun s -> Buffer.add_string b.unsynced s);
      log_sync =
        (fun () ->
           Buffer.add_buffer b.durable b.unsynced;
           Buffer.clear b.unsynced);
      log_contents = (fun () -> Buffer.contents b.durable);
      log_size = (fun () -> Buffer.length b.durable);
      log_read =
        (fun ~pos ~len ->
           let n = Buffer.length b.durable in
           let pos = max 0 (min pos n) in
           let len = max 0 (min len (n - pos)) in
           Buffer.sub b.durable pos len);
      log_reset =
        (fun s ->
           Buffer.clear b.durable;
           Buffer.clear b.unsynced;
           Buffer.add_string b.durable s) }

  (* Power loss: the synced prefix survives; of the unsynced tail, an
     arbitrary prefix of [keep] bytes made it to the platter (the
     partially flushed page cache), the rest vanishes. [keep] is
     sampled by the caller from the run's DRBG so crashes stay a pure
     function of the seed. A mid-record cut here is exactly the torn
     tail {!Wal.scan} must refuse to replay. *)
  let crash ?(keep = 0) b =
    let tail = Buffer.contents b.unsynced in
    let keep = max 0 (min keep (String.length tail)) in
    Buffer.add_string b.durable (String.sub tail 0 keep);
    Buffer.clear b.unsynced;
    b.crashes <- b.crashes + 1;
    b.torn_bytes <- keep

  let durable_log b = Buffer.contents b.durable
  let unsynced_log b = Buffer.contents b.unsynced
  let crashes b = b.crashes
  let torn_bytes b = b.torn_bytes
end
