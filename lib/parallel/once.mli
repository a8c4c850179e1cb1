(** Race-safe compute-once cells — the multicore replacement for
    module-level [lazy] values.

    Forcing an OCaml [lazy] from two domains at once raises
    [CamlinternalLazy.Undefined]; a cell here instead tolerates the
    race with benign duplicate computation: both domains may run the
    thunk, one result wins a compare-and-set, and every caller (then
    and later) observes that single published value. The thunk must be
    pure; its result may be computed more than once but is published
    exactly once. *)

type 'a t

(** [make f] wraps the pure thunk [f]; nothing runs until {!force}. *)
val make : (unit -> 'a) -> 'a t

(** First caller(s) compute, exactly one result is published, everyone
    returns the published (physically equal) value. *)
val force : 'a t -> 'a
