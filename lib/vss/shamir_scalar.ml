(* Shamir secret sharing of scalars modulo the curve order: the sharing
   the trustees use for openings of option-encoding commitments. It is
   additively homomorphic share-wise, which is what lets each trustee
   sum its shares over the tally set and submit a single opening share
   of the homomorphic total. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type share = {
  x : int;        (* evaluation point, >= 1 *)
  value : Nat.t;
}

let poly_eval fn coeffs x =
  let acc = ref Nat.zero in
  for i = Array.length coeffs - 1 downto 0 do
    acc := Modular.add fn (Modular.mul fn !acc x) coeffs.(i)
  done;
  !acc

let split fn rng ~secret ~threshold ~shares =
  if threshold < 1 || threshold > shares then invalid_arg "Shamir_scalar.split: bad threshold";
  let byte_len = (Nat.bit_length (Modular.modulus fn) + 7) / 8 in
  let random_coeff () = Modular.of_bytes_be fn (Dd_crypto.Drbg.bytes rng (byte_len + 8)) in
  let coeffs =
    Array.init threshold (fun i -> if i = 0 then Modular.reduce fn secret else random_coeff ())
  in
  Array.init shares (fun i ->
      let x = i + 1 in
      { x; value = poly_eval fn coeffs (Nat.of_int x) })

(* Lagrange coefficients at 0 for the given x-coordinates. The
   x-coordinates are public trustee indices, so the variable-time
   inverse of their differences leaks nothing. *)
let lagrange_at_zero fn xs =
  let k = Array.length xs in
  Array.init k (fun i ->
      let num = ref Nat.one and den = ref Nat.one in
      for j = 0 to k - 1 do
        if j <> i then begin
          let xj = Modular.of_int fn xs.(j) and xi = Modular.of_int fn xs.(i) in
          num := Modular.mul fn !num xj;
          den := Modular.mul fn !den (Modular.sub fn xj xi)
        end
      done;
      Modular.mul fn !num (Modular.inv_vartime fn !den))

let reconstruct fn ~threshold (shares : share list) =
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
  let basis = lagrange_at_zero fn xs in
  let acc = ref Nat.zero in
  Array.iteri (fun i s -> acc := Modular.add fn !acc (Modular.mul fn basis.(i) s.value)) shares;
  !acc

