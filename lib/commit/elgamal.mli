(** Lifted-ElGamal commitments: additively homomorphic commitments to
    scalars, instantiating the paper's option-encoding commitment
    scheme. A unit-vector option encoding is a vector of these, one per
    option (see {!Unit_vector}). *)

module Sc = Dd_bignum.Sc
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve

type t

type opening = {
  msg : Sc.t;
  rand : Sc.t;
}

(** Commit to [msg] with explicit randomness. *)
val commit : msg:Sc.t -> rand:Sc.t -> t

(** The comb jobs of [(c1, c2)] for an opening whose message is 0 or 1,
    [rand*G] and [msg*G + rand*H], to evaluate with
    {!Curve.mul_base_batch}. [msg*G] is a {!Curve.bit_table} term, so
    the pair runs two comb lanes, not three. *)
val commit_bit_jobs : opening -> Curve.comb_job * Curve.comb_job

(** Commit with fresh randomness drawn from the DRBG. *)
val commit_random : Dd_crypto.Drbg.t -> msg:Sc.t -> t * opening

(** The identity commitment (to 0 with randomness 0). *)
val zero_commitment : t

(** Homomorphic addition of committed values. *)
val add : t -> t -> t
val sum : t list -> t

(** The matching operation on openings. *)
val add_opening : opening -> opening -> opening

(** Check that [opening] opens [t]: the two equations of
    {!verify_batch}, each alone at weight one
    ({!Dd_group.Group_ctx.serial}). *)
val verify : t -> opening -> bool

(** Verify many (commitment, opening) pairs with one multi-scalar
    multiplication; accepts a batch containing an invalid opening with
    probability at most 2^-128. {b Variable time} — published data
    only. *)
val verify_batch : Dd_crypto.Drbg.t -> (t * opening) array -> bool

(** Canonical byte encoding (for hashing into transcripts). *)
val encode : t -> string

(** Inverse of {!encode}, with full point validation; [None] on any
    malformed or off-curve input (used by the board's segment codec). *)
val decode : string -> t option

(** Raw component access, used by the ZK proof module. *)
val components : t -> Curve.point * Curve.point
val make : c1:Curve.point -> c2:Curve.point -> t
