(** Byzantine Vote Collector behaviors for the chaos harness.

    An adversary wraps an honest {!Vc_node}: {!handle_incoming} sees
    every delivered message before (optionally) forwarding it to the
    wrapped honest logic, and {!transform_outgoing} may corrupt or
    withhold every message the node emits. All randomness flows from a
    seeded DRBG, keeping adversarial schedules deterministic per run
    seed. *)

type behavior =
  | Silent
      (** crash-faulty: receives everything, does and sends nothing *)
  | Drop_receipts
      (** runs the protocol but never answers voters *)
  | Equivocate
      (** endorses every store-valid vote code and runs shadow
          responders per (serial, code), attacking UCERT uniqueness *)
  | Corrupt_shares
      (** flips bytes in disclosed VOTE_P receipt shares; caught by the
          EA's per-share authenticators in full fidelity *)
  | Byzantine_consensus
      (** drops/corrupts Bracha traffic per destination, withholds
          RECOVER-RESPONSEs, announces an empty knowledge set, and asks
          for nonexistent serials *)
  | Malformed_wire
      (** re-encodes every outgoing message with one random byte
          flipped: undecodable frames model malformed input, decodable
          ones well-formed-but-wrong content *)

(** [Silent] and [Drop_receipts] never answer voters. *)
val suppresses_replies : behavior -> bool

(** Every behavior except [Silent] participates in Vote Set Consensus
    (a silent node is indistinguishable from a crashed one). *)
val runs_vsc : behavior -> bool

type t

val create :
  behavior:behavior -> me:int -> cfg:Types.config -> keys:Auth.keys ->
  store:Ballot_store.t -> gctx:Dd_group.Group_ctx.t ->
  rng:Dd_crypto.Drbg.t -> send_vc:(dst:int -> Messages.vc_msg -> unit) -> t

val behavior : t -> behavior

(** Process a delivered message: act on it adversarially, then forward
    to [honest] (the wrapped node's handler) unless the behavior
    ignores input entirely. *)
val handle_incoming :
  t -> honest:(Messages.vc_msg -> unit) -> Messages.vc_msg -> unit

(** Filter/corrupt one outgoing message to [dst]; [None] withholds it. *)
val transform_outgoing :
  t -> dst:int -> Messages.vc_msg -> Messages.vc_msg option
