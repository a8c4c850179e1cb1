(** Unit-vector option-encoding commitments: a committed [e_choice]
    among [options] coordinates, with homomorphic addition so the tally
    is the opening of the coordinate-wise sum. *)

module Nat = Dd_bignum.Nat

type t = Elgamal.t array
type opening = Elgamal.opening array

(** Commit to the unit vector selecting [choice] out of [options].
    Raises [Invalid_argument] if [choice] is out of range. *)
val commit :
  Dd_crypto.Drbg.t -> options:int -> choice:int -> t * opening

(** The openings {!commit} would draw, in the same DRBG order, without
    computing the commitments (batched set-up computes them with
    {!Elgamal.commit_bit_jobs}). *)
val openings : Dd_crypto.Drbg.t -> options:int -> choice:int -> opening

(** k-out-of-m selection: ones exactly at the (distinct) [choices].
    Raises [Invalid_argument] on out-of-range or duplicate choices. *)
val commit_k :
  Dd_crypto.Drbg.t -> options:int -> choices:int list -> t * opening

val add : t -> t -> t
val sum : options:int -> t list -> t

val add_opening : opening -> opening -> opening
val sum_openings : options:int -> opening list -> opening

(** Verify every coordinate opening. *)
val verify : t -> opening -> bool

(** Verify many unit-vector openings at once: all coordinate equations
    of all vectors fold into one multi-scalar multiplication
    (soundness 2^-128 per batch; see {!Dd_group.Batch}). {b Variable
    time} — published data only. *)
val verify_batch :
  Dd_crypto.Drbg.t -> (t * opening) list -> bool

(** The one check for openings published on the bulletin board (the
    board's reconstructions and the auditor's check (d)):
    {!verify_batch} under Fiat-Shamir weights derived from [label] (the
    election id) and the items themselves — deterministic, so every party re-checking
    the same data derives the same weights. {b Variable time} —
    published data only. *)
val verify_published :
  label:string -> (t * opening) array -> bool

(** Does the opening carry exactly the unit vector for [choice]? *)
val opening_is_unit : opening -> choice:int -> bool

(** Decode a tally: per-option counts from the opening of a sum.
    Raises if a count exceeds [max_int] (impossible in any election). *)
val counts_of_opening : opening -> int array

val encode : t -> string
