(* Shamir secret sharing of scalars modulo the curve order: the sharing
   the trustees use for openings of option-encoding commitments. It is
   additively homomorphic share-wise, which is what lets each trustee
   sum its shares over the tally set and submit a single opening share
   of the homomorphic total. *)

module Sc = Dd_bignum.Sc

type share = {
  x : int;        (* evaluation point, >= 1 *)
  value : Sc.t;
}

let poly_eval coeffs x =
  let acc = ref Sc.zero in
  for i = Array.length coeffs - 1 downto 0 do
    acc := Sc.add (Sc.mul !acc x) coeffs.(i)
  done;
  !acc

let split rng ~secret ~threshold ~shares =
  if threshold < 1 || threshold > shares then invalid_arg "Shamir_scalar.split: bad threshold";
  let random_coeff () = Sc.of_bytes_mod (Dd_crypto.Drbg.bytes rng 40) in
  let coeffs = Array.init threshold (fun i -> if i = 0 then secret else random_coeff ()) in
  Array.init shares (fun i ->
      let x = i + 1 in
      { x; value = poly_eval coeffs (Sc.of_int x) })

(* Lagrange coefficients at 0 for the given x-coordinates. The
   x-coordinates are public trustee indices, so the variable-time
   inverse of their differences leaks nothing. *)
let lagrange_at_zero xs =
  let k = Array.length xs in
  Array.init k (fun i ->
      let num = ref Sc.one and den = ref Sc.one in
      for j = 0 to k - 1 do
        if j <> i then begin
          let xj = Sc.of_int xs.(j) and xi = Sc.of_int xs.(i) in
          num := Sc.mul !num xj;
          den := Sc.mul !den (Sc.sub xj xi)
        end
      done;
      Sc.mul !num (Sc.inv_vartime !den))

let reconstruct ~threshold (shares : share list) =
  let shares = Array.of_list shares in
  if Array.length shares <> threshold then
    invalid_arg "Shamir_scalar.reconstruct: need exactly threshold shares";
  let xs = Array.map (fun s -> s.x) shares in
  Array.iteri (fun i x ->
      if x < 1 then invalid_arg "Shamir_scalar.reconstruct: bad x";
      for j = 0 to i - 1 do
        if xs.(j) = x then invalid_arg "Shamir_scalar.reconstruct: duplicate x"
      done)
    xs;
  let basis = lagrange_at_zero xs in
  let acc = ref Sc.zero in
  Array.iteri (fun i s -> acc := Sc.add !acc (Sc.mul basis.(i) s.value)) shares;
  !acc

