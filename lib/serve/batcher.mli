(** Adaptive request batching for the collector hot path.

    A drained mailbox batch carries many independent authenticator
    obligations — endorsement signatures, the EA's receipt-share tags,
    and (dominating the cost) the same UCERTs re-verified on every
    VOTE_P / announce / recover delivery. {!preverify} extracts them,
    deduplicates, and settles everything not already cached through one
    {!Ddemos.Auth.verify_batch} call (a single randomized multi-scalar
    multiplication under Schnorr — the 2.3x/entry micro win, here
    amortized {e across} messages, not just within one certificate).
    Verdicts land in a bounded cache; the node's [env.verify_tag] hook
    ({!verify}) reads them back, falling back to a direct
    [Auth.verify] on a miss — so the observable semantics are exactly
    the unhooked node's, only cheaper.

    Adversarial inputs cannot hide behind the batch: when a batch
    fails, every obligation is re-settled individually, so exactly the
    invalid tags are rejected. *)

type stats = {
  mutable batch_calls : int;   (** verify_batch invocations *)
  mutable batched : int;       (** obligations settled by a batch *)
  mutable serial : int;        (** obligations settled one-by-one *)
  mutable cache_hits : int;    (** hook lookups answered from cache *)
}

type t

val create :
  ?min_batch:int ->
  keys:Ddemos.Auth.keys ->
  gctx:Dd_group.Group_ctx.t ->
  election_id:string ->
  ea_signer:int ->
  share_tags:bool ->
  unit -> t

(** Batch-settle the obligations of a drained message batch. *)
val preverify : t -> Ddemos.Messages.vc_msg list -> unit

(** The [Vc_node.env.verify_tag] hook: cached verdict, or a direct
    [Auth.verify] on a miss. *)
val verify : t -> signer:int -> string -> Ddemos.Auth.tag -> bool

val stats : t -> stats
