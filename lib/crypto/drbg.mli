(** Deterministic random byte generator (ChaCha20 keystream, SHA-256
    seeded). Replaces an OS entropy source so that every election,
    test, and simulation is exactly replayable from its seed. *)

type t

val create : seed:string -> t

(** [bytes t n] draws [n] fresh bytes. *)
(* lint: secret *)
val bytes : t -> int -> string

val byte : t -> int

(** [int t bound] is uniform in [0, bound); rejection-sampled, so it is
    exactly uniform. Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** [fork t ~label] derives an independent child generator; drawing from
    the child does not perturb the parent beyond the fork point. *)
val fork : t -> label:string -> t
