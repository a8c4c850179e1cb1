(** Shamir secret sharing of field scalars (mod the curve order) — the
    trustees' sharing of commitment openings. Shares add share-wise
    ([Elgamal_vss.sum_shares]). *)

module Sc = Dd_bignum.Sc

type share = {
  x : int;
  value : Sc.t;
}

(** [split rng ~secret ~threshold ~shares] draws the
    [threshold - 1] random coefficients of a polynomial whose constant
    term is the secret (each a 40-byte DRBG draw reduced mod n, so its
    bias is below 2^-64) and returns its shares at [x = 1..shares]. *)
val split :
  Dd_crypto.Drbg.t -> secret:Sc.t -> threshold:int -> shares:int -> share array

(** Exactly [threshold] shares with distinct positive [x]. *)
val reconstruct : threshold:int -> share list -> Sc.t
