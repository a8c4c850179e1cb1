(** Verifiable secret sharing of lifted-ElGamal commitment openings:
    shares verify against the public commitment itself (constant term)
    plus published auxiliary coefficient commitments, and shares add
    homomorphically. The trustees' sharing of
    option-encoding openings. *)

module Nat = Dd_bignum.Nat
module Elgamal = Dd_commit.Elgamal

type share = {
  x : int;
  msg : Nat.t;
  rand : Nat.t;
}

type aux = Elgamal.t array

(* lint: secret *)
val deal :
  Dd_group.Group_ctx.t -> Dd_crypto.Drbg.t -> opening:Elgamal.opening ->
  threshold:int -> shares:int -> aux * share array

(** {!deal} without the aux commitments: the coefficient pairs
    [(m_j, r_j)], [j = 1 .. threshold-1], as openings whose commitments
    ({!Elgamal.commit_jobs}) form the aux vector, and the shares. Draws
    exactly what {!deal} draws. *)
(* lint: secret *)
val deal_coefficients :
  Dd_group.Group_ctx.t -> Dd_crypto.Drbg.t -> opening:Elgamal.opening ->
  threshold:int -> shares:int -> Elgamal.opening array * share array

(** Verify a share against the shared commitment and its aux vector. *)
val verify_share :
  Dd_group.Group_ctx.t -> commitment:Elgamal.t -> aux:aux -> share -> bool

(** Verify many (commitment, aux, share) triples with one multi-scalar
    multiplication under random 128-bit weights; accepts a batch
    containing a bad share with probability at most 2^-128.
    {b Variable time} — public data only. *)
val verify_shares_batch :
  ?pool:Dd_parallel.Pool.t ->
  Dd_group.Group_ctx.t -> Dd_crypto.Drbg.t -> (Elgamal.t * aux * share) array -> bool

val reconstruct :
  Dd_group.Group_ctx.t -> threshold:int -> share list -> Elgamal.opening

val sum_shares : Dd_group.Group_ctx.t -> x:int -> share list -> share
