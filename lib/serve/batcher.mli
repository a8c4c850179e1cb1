(** Adaptive request batching for the collector hot path.

    A drained mailbox batch carries many independent authenticator
    obligations — endorsement signatures, the EA's receipt-share tags,
    and the UCERTs carried by VOTE_Ps and RECOVER-RESPONSEs, as
    {!Ddemos.Vc_node.obligations} lists them. {!preverify} takes them,
    deduplicates, and, once at least four
    are fresh, settles them all through one
    {!Ddemos.Auth.verify_batch} call (a single randomized multi-scalar
    multiplication under Schnorr — the 2.3x/entry micro win, here
    amortized {e across} messages, not just within one certificate).
    Verdicts last one tick: each {!preverify} starts an empty table, so
    it holds at most what one tick's messages oblige. The node's
    [env.verify_tag] hook ({!verify}) reads them back, falling back to
    a direct [Auth.verify] on a miss — so the observable semantics are
    exactly the unhooked node's, only cheaper.

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

val create : keys:Ddemos.Auth.keys -> t

(** Batch-settle the (signer, body, tag) obligations of a drained
    message batch, dropping the previous batch's verdicts. *)
val preverify : t -> (int * string * Ddemos.Auth.tag) list -> unit

(** The [Vc_node.env.verify_tag] hook: cached verdict, or a direct
    [Auth.verify] on a miss. *)
val verify : t -> signer:int -> string -> Ddemos.Auth.tag -> bool

val stats : t -> stats
