(** Shamir secret sharing of field scalars (mod the curve order) — the
    trustees' sharing of commitment openings. Shares add share-wise
    ([Elgamal_vss.sum_shares]). *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type share = {
  x : int;
  value : Nat.t;
}

(** [split fn rng ~secret ~threshold ~shares] draws the
    [threshold - 1] random coefficients of a polynomial whose constant
    term is the reduced secret and returns its shares at
    [x = 1..shares]. *)
val split :
  Modular.ctx -> Dd_crypto.Drbg.t -> secret:Nat.t -> threshold:int -> shares:int ->
  share array

(** Exactly [threshold] shares with distinct positive [x]. *)
val reconstruct : Modular.ctx -> threshold:int -> share list -> Nat.t
