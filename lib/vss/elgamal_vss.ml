(* Secret sharing of lifted-ElGamal commitment openings.

   An opening is a scalar pair (msg, rand). The dealer shares both with
   degree-(k-1) polynomials F_m, F_r over the scalar field; trustee i
   holds (F_m(i), F_r(i)). Nothing about a share is published: a set of
   k shares is checked by reconstructing the opening and opening the
   public commitment with it (the board's reconstruct-and-check), so a
   bad share shows up as an opening that fails.

   Shares are additively homomorphic, which is what lets each trustee
   sum its shares over the tally set Etally and submit one opening
   share of the homomorphic total Esum. *)

module Sc = Dd_bignum.Sc
module Elgamal = Dd_commit.Elgamal

type share = {
  x : int;
  msg : Sc.t;    (* F_m(x) *)
  rand : Sc.t;   (* F_r(x) *)
}

let deal rng ~(opening : Elgamal.opening) ~threshold ~shares =
  let mshares = Shamir_scalar.split rng ~secret:opening.Elgamal.msg ~threshold ~shares in
  let rshares = Shamir_scalar.split rng ~secret:opening.Elgamal.rand ~threshold ~shares in
  Array.init shares (fun i ->
      { x = mshares.(i).Shamir_scalar.x;
        msg = mshares.(i).Shamir_scalar.value;
        rand = rshares.(i).Shamir_scalar.value })

let reconstruct ~threshold (shares : share list) : Elgamal.opening =
  let msg =
    Shamir_scalar.reconstruct ~threshold
      (List.map (fun s -> { Shamir_scalar.x = s.x; Shamir_scalar.value = s.msg }) shares)
  in
  let rand =
    Shamir_scalar.reconstruct ~threshold
      (List.map (fun s -> { Shamir_scalar.x = s.x; Shamir_scalar.value = s.rand }) shares)
  in
  { Elgamal.msg; Elgamal.rand }

let add_shares a b =
  if a.x <> b.x then invalid_arg "Elgamal_vss.add_shares: mismatched evaluation points";
  { x = a.x; msg = Sc.add a.msg b.msg; rand = Sc.add a.rand b.rand }

let sum_shares ~x l = List.fold_left add_shares { x; msg = Sc.zero; rand = Sc.zero } l
