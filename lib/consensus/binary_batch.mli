(** Bracha's asynchronous binary consensus with a local (or optional
    common) coin, batched over many slots — the engine of D-DEMOS's
    Vote Set Consensus ("is there a valid vote code for this ballot?"
    per ballot, decided for all ballots in one batched instance).

    Agreement and validity hold for [n >= 3f+1] when payloads are
    disseminated by reliable broadcast ({!Rbc}), which makes every
    sender single-valued per (round, step). *)

type coin =
  | Local                  (** Bracha's per-node random coin *)
  | Common of string       (** deterministic shared coin (benchmark mode) *)

type t

(** [broadcast] must RBC the payload under a fresh tag from this node;
    [on_decide slot value] fires exactly once per slot. *)
val create :
  n:int -> f:int -> me:int -> slots:int -> initial:bool array -> coin:coin ->
  rng:Dd_crypto.Drbg.t ->
  broadcast:(string -> unit) ->
  on_decide:(int -> bool -> unit) ->
  t

(** Broadcast the round-1 step-1 message. *)
val start : t -> unit

(** Feed an RBC-delivered payload from [from]. Malformed payloads are
    discarded (Byzantine sender). *)
val on_deliver : t -> from:int -> string -> unit


(** Wire helpers, exposed for tests. *)
(* lint: allow unused-export — test_consensus crafts Byzantine payloads *)
val encode_payload : round:int -> step:int -> int array -> string
(* lint: allow unused-export — test_consensus "payload codec" *)
val decode_payload : string -> (int * int * int array) option
