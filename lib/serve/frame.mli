(** Length framing for the byte-stream transports: every message
    travels as a 4-byte big-endian length followed by the payload. The
    decoder is incremental and total — bytes may arrive split, torn or
    coalesced across {!feed} calls, and a hostile length prefix poisons
    the decoder (sticky {!error}) instead of allocating unboundedly. *)

(** Frames larger than this are a protocol violation (1 MiB); every
    decoder enforces it. A link message past it travels in pieces
    ({!Mux.encode_split}). *)
val max_frame_default : int

(** Append the framed payload to [buf] without an intermediate copy. *)
val encode_into : Buffer.t -> string -> unit

type decoder

val create : unit -> decoder

(** Feed newly received bytes; no-op once the decoder is poisoned. *)
val feed : decoder -> string -> unit

(** Next complete frame, if one is buffered. *)
val pop : decoder -> string option

(** Sticky error (oversized frame); the connection should be closed. *)
(* lint: allow unused-export — test_serve checks a hostile length poisons the decoder *)
val error : decoder -> string option

(** One framed endpoint, the runtime's connections and the load
    generator's channels alike: a {!Transport.conn} with its decoder
    and its outbound backlog. *)
type link

val link : Transport.conn -> link

(** Frame a payload onto the backlog; returns the frames queued, [0]
    on a closed link. *)
val queue : link -> string -> int

(** One [send]; the backlog keeps exactly the unsent tail. Returns the
    bytes sent. *)
val flush : link -> int

(** Feed every chunk [recv] returns, as-is, and pass each complete
    frame to the callback; returns the bytes and frames read. Then the
    link closes if its decoder is poisoned or its transport reports
    [alive () = false]. A closed link reads nothing, and a callback that
    closes the link gets no further frame. *)
val pump : link -> (string -> unit) -> int * int

(** Close the transport and drop the backlog; idempotent. *)
val close : link -> unit

val is_open : link -> bool
val backlog : link -> int
val poisoned : link -> bool
