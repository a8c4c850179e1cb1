(** Fixed-size domain-pool executor.

    A pool of [domains] participants: [domains - 1] persistent worker
    domains plus the calling domain, which always participates in its
    own parallel calls (so nested calls cannot deadlock and a pool of
    size 1 degrades to exactly the serial loop).

    Determinism contract:
    - {!parallel_for} / {!parallel_map} assign results by index —
      output is identical for every pool size and schedule.
    - If a body raises, all chunks still run and the exception from the
      {e smallest} chunk index is re-raised in the caller with its
      original payload and backtrace — matching what the serial loop
      would have raised first. *)

type t

(** [create ~domains ()] spawns [domains - 1] worker domains.
    [domains] defaults to 1 (purely serial, spawns nothing).
    @raise Invalid_argument if [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** Total participants: worker domains + the caller. *)
val size : t -> int

(** [parallel_for t n f] runs [f 0 .. f (n-1)], partitioned into chunks
    of [?chunk] indices (default: about 8 chunks per participant).
    [f] must only write to disjoint, index-addressed state. *)
val parallel_for : t -> ?chunk:int -> int -> (int -> unit) -> unit

(** [parallel_map t f arr] is [Array.map f arr] with elements computed
    in parallel; result order always matches [arr]. *)
val parallel_map : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** Close the pool and join its workers. Subsequent parallel calls on
    it raise [Invalid_argument]. Idempotent. *)
val shutdown : t -> unit

(** The lazily created process-wide pool, sized at first use by the
    [DDEMOS_DOMAINS] environment variable (default 1, clamped to
    [1, 64]; malformed values read as 1) and shut down via [at_exit].
    Callers that take a [?pool] argument default to this. *)
val get_default : unit -> t
