(** The byte-stream connection abstraction both backends implement:
    {!Pipe} (in-process, deterministic) and {!Socket} (Unix domain
    sockets). Everything is non-blocking — [recv] returns whatever is
    available now, [send] accepts what fits now — so one thread can
    multiplex any number of connections. *)

type conn = {
  recv : unit -> string;
      (** Bytes available right now; [""] when there are none (or the
          peer closed — check [alive]). Call in a loop until [""]. *)
  send : string -> pos:int -> len:int -> int;
      (** Try to send [len] bytes of [s] starting at [pos]; returns how
          many were accepted (possibly [0] when the peer's buffer is
          full — the caller keeps the rest queued). *)
  alive : unit -> bool;
      (** [false] once the connection will deliver nothing more; the
          runtime drops it after reading its last bytes. *)
  close : unit -> unit;
}

(** Best-effort send of a whole string; returns the accepted prefix
    length. *)
val send_string : conn -> string -> int
