(** Lifted-ElGamal commitments: additively homomorphic commitments to
    scalars, instantiating the paper's option-encoding commitment
    scheme. A unit-vector option encoding is a vector of these, one per
    option (see {!Unit_vector}). *)

module Nat = Dd_bignum.Nat
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve

type t

type opening = {
  msg : Nat.t;
  rand : Nat.t;
}

(** Commit to [msg] with explicit randomness. *)
val commit : msg:Nat.t -> rand:Nat.t -> t

(** The comb jobs of [(c1, c2)] for an opening whose message is 0 or 1,
    [rand*G] and [msg*G + rand*H], to evaluate with
    {!Curve.mul_base_batch}. [msg*G] is a {!Curve.bit_table} term, so
    the pair runs two comb lanes, not three. *)
val commit_bit_jobs : opening -> Curve.comb_job * Curve.comb_job

(** Commit with fresh randomness drawn from the DRBG. *)
val commit_random : Dd_crypto.Drbg.t -> msg:Nat.t -> t * opening

(** The identity commitment (to 0 with randomness 0). *)
val zero_commitment : t

(** Homomorphic addition of committed values. *)
val add : t -> t -> t
val sum : t list -> t

(** The matching operation on openings. *)
val add_opening : opening -> opening -> opening

(** Check that [opening] opens [t]. *)
val verify : t -> opening -> bool

(** Fold one pair's two opening equations into an MSM accumulator
    under fresh random weights from the DRBG (building block for
    {!verify_batch} and the unit-vector batch check). {b Variable
    time} — published data only. *)
val accumulate :
  Group_ctx.msm_acc -> Dd_crypto.Drbg.t -> t -> opening -> unit

(** Verify many (commitment, opening) pairs with one multi-scalar
    multiplication; accepts a batch containing an invalid opening with
    probability at most 2^-128. {b Variable time} — published data
    only. *)
val verify_batch : Dd_crypto.Drbg.t -> (t * opening) array -> bool

val equal : t -> t -> bool

(** Canonical byte encoding (for hashing into transcripts). *)
val encode : t -> string

(** Inverse of {!encode}, with full point validation; [None] on any
    malformed or off-curve input (used by the board's segment codec). *)
val decode : string -> t option

(** Raw component access, used by the ZK proof module. *)
val components : t -> Curve.point * Curve.point
val make : c1:Curve.point -> c2:Curve.point -> t
