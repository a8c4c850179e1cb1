(** The write-ahead journal over a {!Device} log: a durable node's
    whole durable state, replayed in full on a cold restart. Records
    are framed as [crc32 | varint length | payload], the checksum
    covering length and payload. Scanning is total — a torn or
    corrupted tail ends the replay at the last clean record; it is
    never resurrected and never raises. *)

(** Frame one payload for appending. *)
val frame : string -> string

(** [log ?sync device payload] appends one framed record. [sync]
    (default [true]) makes it durable before returning: a node syncs
    before any externally visible action that depends on the record. *)
val log : ?sync:bool -> Device.t -> string -> unit

(** [read_frame s off] decodes the single frame starting at byte [off]:
    [Some (payload, next_off)] on a clean frame, [None] on truncation or
    checksum failure. Total. The segment reader uses this to walk frames
    through a sliding window instead of materializing the log. *)
val read_frame : string -> int -> (string * int) option

(** [scan log] walks framed records from the front and stops at the
    first truncated/corrupt frame: returns the clean-prefix payloads in
    order plus the byte offset where scanning stopped. Total. *)
val scan : string -> string list * int

(** [open_log device] opens a node's journal for replay: the
    clean-prefix payloads of the durable log, in order. A torn or
    corrupt tail is truncated first ([log_reset] to the clean prefix),
    so records logged after the restart follow the replayed ones and
    the next recovery reaches them. *)
val open_log : Device.t -> string list
