(** Unix-domain-socket transport backend.

    The single module in [lib/serve] that touches the operating
    system: everything else speaks {!Transport.conn}, and the lint's
    sans-IO rule holds this module to exactly that boundary (like
    [File_device] under [lib/storage]).

    All endpoints are non-blocking: [recv] returns [""] and [send]
    accepts [0] bytes when the kernel buffers cannot move data, which
    is precisely the {!Transport.conn} contract the runtime's tick
    loop and backpressure accounting are built on. *)

type listener

(** Bind and listen on a filesystem path, replacing any stale socket
    file left by a previous run. Raises [Unix.Unix_error] on operator
    errors (bad path, permissions). *)
val listen : path:string -> unit -> listener

(** Accept every pending connection on each listener, passing each to
    [on_conn] with its listener's index as [node]
    ([Runtime.accept rt] fits). *)
val accept_all : listener array -> (node:int -> Transport.conn -> unit) -> unit

(** Close the listening socket and remove the socket file. *)
val close_listener : listener -> unit

(** Connect to a serving socket. Raises [Unix.Unix_error] when nothing
    listens there. *)
val connect : path:string -> Transport.conn
