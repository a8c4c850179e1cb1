(** Connection multiplexing: the frame payloads of the serving
    runtime. One byte-stream connection carries many logical clients
    ([channel] demultiplexes them) or an inter-node link; node traffic
    nests the existing {!Ddemos.Messages} wire format unchanged.

    Peer traffic is coalesced: [Vc] and [Bb] carry a non-empty list of
    one sender's messages, so a link needs one frame per tick however
    many messages it carries. A single message keeps the one-message
    encoding (kind 2 or 3); two or more travel as a batch kind — a
    count, then each message's {!Ddemos.Messages} encoding,
    length-prefixed — which is smaller than one frame per message.
    Client frames always carry one vote or one reply.

    The decoder is total — any malformed frame yields [None], and a
    batch that holds fewer than two messages, an undecodable message or
    trailing bytes is malformed as a whole. *)

type t =
  | Client_vote of { channel : int; req : int; serial : int; vote_code : string }
  | Client_reply of { channel : int; req : int; outcome : Ddemos.Types.vote_outcome }
  | Vc of Ddemos.Messages.vc_msg list   (** non-empty, in delivery order *)
  | Bb of Ddemos.Messages.bb_msg list   (** non-empty, in delivery order *)

(** Raises [Invalid_argument] on an empty [Vc] or [Bb] list. The
    token of [encode] and [decode] is unused; perfbench passes one. *)
val encode : Dd_group.Group_ctx.t -> t -> string

val decode : Dd_group.Group_ctx.t -> string -> t option

(** The payloads that carry [msg] when none may exceed [max_frame]
    bytes: a client frame is one payload; a [Vc] or [Bb] list is cut,
    in order, into as few payloads as fit, each starting a new one only
    when the next message would push it past [max_frame]. A message too
    large on its own still travels alone. Decoding the payloads and
    concatenating their lists gives back [msg]'s list. *)
val encode_split : max_frame:int -> t -> string list
