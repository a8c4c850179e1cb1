(** Threshold sharing of lifted-ElGamal commitment openings: the
    trustees' shares of the option-encoding openings. No share is
    checked on its own. The board's reconstruct-and-check verifies
    trustee shares: [threshold] of them reconstruct an opening, and the
    opening must open the public commitment. Shares add
    homomorphically, so a sum of shares opens a sum of commitments. *)

module Sc = Dd_bignum.Sc
module Elgamal = Dd_commit.Elgamal

type share = {
  x : int;
  msg : Sc.t;
  rand : Sc.t;
}

(** [deal rng ~opening ~threshold ~shares] splits both scalars of
    [opening] with degree-[threshold - 1] polynomials (the message's
    coefficients drawn first) and returns the shares at
    [x = 1 .. shares]. *)
(* lint: secret *)
val deal :
  Dd_crypto.Drbg.t -> opening:Elgamal.opening -> threshold:int -> shares:int -> share array

val reconstruct : threshold:int -> share list -> Elgamal.opening

val sum_shares : x:int -> share list -> share
