(** Shared plumbing for randomized batch verification: small random
    weights, weight-DRBG derivation, and bisection localization.
    Soundness: a batch accepting despite a bad item is a 2^-128 event
    per batch (see DESIGN.md, "Batch verification"). *)

(** A fresh uniform nonzero 128-bit weight. *)
val weight : Dd_crypto.Drbg.t -> Dd_bignum.Sc.t

(** [derive_rng ~label parts] seeds a weight DRBG from the batch items
    themselves (Fiat-Shamir): sound for verifying published data,
    deterministic for replay. Node-local verifiers with their own DRBG
    stream should use that instead. *)
val derive_rng : label:string -> string list -> Dd_crypto.Drbg.t

(** [find_failures ~n ~check] returns the sorted indices of failing
    items, bisecting with [check ~lo ~len] (which must hold iff items
    [lo..lo+len-1] all verify); [[]] means all [n] verify. A single bad
    item costs O(log n) sub-batch checks. *)
val find_failures : n:int -> check:(lo:int -> len:int -> bool) -> int list
