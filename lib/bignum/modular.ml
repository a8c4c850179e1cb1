(* Modular arithmetic by Barrett reduction, with an extended-Euclid
   inverse.

   The slow Nat.divmod runs once, in [create], to compute the Barrett
   constant mu = floor(B^(2k) / m) (B = 2^62, k limbs in m); reducing a
   product of two residues then costs two multiplications and at most
   two subtractions. Anything wider than B^(2k) falls back to long
   division. The curves' base fields are not computed here: the group
   runs them on its own fixed-width limbs ([Fe]). What remains is the
   curve-order (scalar) field, plus whatever modulus a test hands in.

   A [ctx] is immutable and holds no scratch, so any number of domains
   may share one. *)

type ctx = {
  modulus : Nat.t;
  kl : int;                 (* 62-bit limbs in the modulus *)
  mu : Nat.t;               (* Barrett constant floor(B^2kl / m) *)
}

let create modulus =
  if Nat.compare modulus Nat.two < 0 then invalid_arg "Modular.create: modulus < 2";
  let kl = (Nat.bit_length modulus + Nat.base_bits - 1) / Nat.base_bits in
  let mu = Nat.div (Nat.shift_left Nat.one (2 * kl * Nat.base_bits)) modulus in
  { modulus; kl; mu }

let modulus ctx = ctx.modulus

(* Barrett reduction of x < B^(2k); falls back to divmod for larger x. *)
let reduce_barrett ctx x =
  if Nat.bit_length x > 2 * ctx.kl * Nat.base_bits then Nat.rem x ctx.modulus
  else begin
    let q1 = Nat.shift_right x ((ctx.kl - 1) * Nat.base_bits) in
    let q2 = Nat.mul q1 ctx.mu in
    let q3 = Nat.shift_right q2 ((ctx.kl + 1) * Nat.base_bits) in
    let r = Nat.sub x (Nat.mul q3 ctx.modulus) in
    let r = if Nat.compare r ctx.modulus >= 0 then Nat.sub r ctx.modulus else r in
    let r = if Nat.compare r ctx.modulus >= 0 then Nat.sub r ctx.modulus else r in
    if Nat.compare r ctx.modulus >= 0 then Nat.rem r ctx.modulus else r
  end

let reduce ctx x = if Nat.compare x ctx.modulus < 0 then x else reduce_barrett ctx x

let add ctx a b =
  let s = Nat.add a b in
  if Nat.compare s ctx.modulus >= 0 then Nat.sub s ctx.modulus else s

let sub ctx a b =
  if Nat.compare a b >= 0 then Nat.sub a b
  else Nat.sub (Nat.add a ctx.modulus) b

let neg ctx a = if Nat.is_zero a then a else Nat.sub ctx.modulus a

let mul ctx a b = reduce_barrett ctx (Nat.mul a b)

let sqr ctx a = reduce_barrett ctx (Nat.sqr a)

(* Left-to-right square-and-multiply. *)
let pow ctx b e =
  let b = reduce ctx b in
  let r = ref Nat.one in
  for i = Nat.bit_length e - 1 downto 0 do
    r := sqr ctx !r;
    if Nat.testbit e i then r := mul ctx !r b
  done;
  !r

(* Extended Euclid on (m, a), tracking only a's Bezout coefficient as a
   (negative?, magnitude) pair. The quotient sequence, and so the
   running time, depends on [a]. *)
let inv_vartime ctx a =
  let a = reduce ctx a in
  if Nat.is_zero a then raise Division_by_zero;
  let rec go r0 r1 (s0_neg, s0) (s1_neg, s1) =
    if Nat.is_zero r1 then begin
      if not (Nat.equal r0 Nat.one) then raise Division_by_zero;
      if s0_neg then Nat.sub ctx.modulus (Nat.rem s0 ctx.modulus)
      else Nat.rem s0 ctx.modulus
    end else begin
      let q, r2 = Nat.divmod r0 r1 in
      (* s2 = s0 - q*s1 *)
      let qs1 = Nat.mul q s1 in
      let s2 =
        if s0_neg = s1_neg then begin
          if Nat.compare s0 qs1 >= 0 then (s0_neg, Nat.sub s0 qs1)
          else (not s0_neg, Nat.sub qs1 s0)
        end else (s0_neg, Nat.add s0 qs1)
      in
      go r1 r2 (s1_neg, s1) s2
    end
  in
  go ctx.modulus a (false, Nat.zero) (false, Nat.one)

let of_int ctx n = reduce ctx (Nat.of_int n)

(* Map a byte string to a residue (used for hash-to-scalar). *)
let of_bytes_be ctx s = reduce ctx (Nat.of_bytes_be s)
