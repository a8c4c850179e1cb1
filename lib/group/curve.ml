(* The secp256k1 group, y^2 = x^3 + 7 over F_p, with Jacobian-coordinate
   arithmetic (X/Z^2, Y/Z^3). This is the group underlying the paper's
   lifted-ElGamal option-encoding commitments, Chaum-Pedersen proofs,
   and Schnorr signatures (replacing MIRACL).

   Every base-field operation runs on [Fe]'s fixed-width limbs. [Nat]
   crosses into [Fe] only at the edges: the curve constants,
   [of_affine], [to_affine], the codecs, [on_curve], [field_sqrt] and
   [hash_to_point]. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular
module Fe = Dd_bignum.Fe

(* GLV endomorphism data (secp256k1 has j-invariant 0): with beta a
   primitive cube root of unity mod p, (x, y) -> (beta*x, y) is
   multiplication by the scalar lambda, and (a1, -b1), (a2, b2) is a
   short lattice basis for splitting a 256-bit scalar into two signed
   ~128-bit halves. Used only by the vartime msm path. *)
type endo = {
  e_lambda : Nat.t;     (* phi(P) = lambda * P *)
  e_beta : Fe.t;        (* phi(x, y) = (beta * x, y) *)
  e_a1 : Nat.t;
  e_b1 : Nat.t;         (* magnitude; the basis vector is (a1, -b1) *)
  e_a2 : Nat.t;
  e_b2 : Nat.t;
}

(* A point is X, Y and Z as [Fe] limbs in one array: X at 0, Y at 10, Z
   at 20. Z = 0 is the identity. A point is never mutated once returned
   ([Group_ctx] recognises G and H by physical equality). *)
type point = int array

(* Jacobian working registers: the engines keep their accumulators and
   tables here and update them in place. *)
type jac = { x : Fe.t; y : Fe.t; z : Fe.t }

(* Temporaries for the formulas, and [ex]/[ey] for a table entry being
   read. A scratch belongs to one call, never to a module value: those
   are shared across domains. *)
type scratch = {
  t0 : Fe.t; t1 : Fe.t; t2 : Fe.t; t3 : Fe.t; t4 : Fe.t; t5 : Fe.t; t6 : Fe.t; t7 : Fe.t;
  ex : Fe.t; ey : Fe.t;
}

(* Odd multiples P, 3P, 5P, ... of a finite point, affine: x, y and the
   phi-image's beta x, five [Fe.pack]ed words per entry. Negations are
   taken at read time. *)
type odd_table = { ox : int array; oy : int array; obx : int array }

(* The prime order n of the generator, and the 32-byte width of an
   encoded coordinate. *)
let order = Nat.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
let byte_len = 32

(* Arithmetic mod the order. *)
let scalar_field = Modular.create order

(* A scalar from outside the program: big-endian, at most [byte_len]
   bytes, and canonical (below the order). *)
let decode_scalar s =
  let k = Nat.of_bytes_be s in
  if String.length s <= byte_len && Nat.compare k order < 0 then Some k else None

(* Draw a uniform scalar in [1, order) from a DRBG. *)
let random_scalar rng =
  let rec draw () =
    let k = Nat.of_bytes_be (Dd_crypto.Drbg.bytes rng byte_len) in
    if Nat.is_zero k || Nat.compare k order >= 0 then draw () else k
  in
  draw ()

(* --- points and registers ---------------------------------------------- *)

let one = let o = Fe.make () in Fe.set_one o; o (* shared, never written *)
let seven = Fe.of_nat (Nat.of_int 7) (* b, likewise *)

(* lint: allow domain-safe-state — the identity, never written *)
let infinity : point = Array.make 30 0

let is_infinity (p : point) =
  let acc = ref 0 in
  for i = 20 to 29 do acc := !acc lor p.(i) done;
  !acc = 0

let jac () = { x = Fe.make (); y = Fe.make (); z = Fe.make () }

let scratch () =
  let m = Fe.make in
  { t0 = m (); t1 = m (); t2 = m (); t3 = m (); t4 = m (); t5 = m (); t6 = m (); t7 = m ();
    ex = m (); ey = m () }

let load (p : point) r =
  Array.blit p 0 r.x 0 10;
  Array.blit p 10 r.y 0 10;
  Array.blit p 20 r.z 0 10

let loaded p = let r = jac () in load p r; r

let store r : point = Array.concat [ r.x; r.y; r.z ]

let copy r a = Fe.set r.x a.x; Fe.set r.y a.y; Fe.set r.z a.z

(* The finite point (x, y, 1). *)
let affine_point x y = store { x; y; z = one }

let generator =
  affine_point
    (Fe.of_nat (Nat.of_hex "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"))
    (Fe.of_nat (Nat.of_hex "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"))

let is_affine (p : point) = not (is_infinity p) && Fe.equal (loaded p).z one

(* Montgomery's trick: invert every element of [xs] (all nonzero) with
   one field inversion. out.(i) first holds the product of the elements
   before index i; the backward pass peels per-element inverses off the
   inverted total, ~3 field mults per element. *)
let batch_inv (xs : Fe.t array) =
  let n = Array.length xs in
  let out = Array.init n (fun _ -> Fe.make ()) in
  let run = Fe.make () in
  Fe.set_one run;
  for i = 0 to n - 1 do
    Fe.set out.(i) run;
    Fe.mul run run xs.(i)
  done;
  if n > 0 then Fe.inv run run;
  for i = n - 1 downto 0 do
    Fe.mul out.(i) out.(i) run;
    Fe.mul run run xs.(i)
  done;
  out

(* The affine (x, y) of finite registers, sharing one inversion. *)
let normalize (js : jac array) =
  let zis = batch_inv (Array.map (fun j -> j.z) js) in
  Array.mapi
    (fun i j ->
       let zz = Fe.make () and x = Fe.make () and y = Fe.make () in
       Fe.sqr zz zis.(i);
       Fe.mul x j.x zz;
       Fe.mul zz zz zis.(i);
       Fe.mul y j.y zz;
       (x, y))
    js

(* Batch normalization: only finite points off Z = 1 need an inverse,
   and they share one inversion through [batch_inv]. Points already at
   Z = 1 (decoded points, table entries) skip the field work. *)
let to_affine_batch pts =
  let js = Array.map loaded pts in
  let pending j = not (Fe.is_zero j.z || Fe.equal j.z one) in
  let pending = List.filter pending (Array.to_list js) in
  let aff = normalize (Array.of_list pending) in
  List.iteri (fun i j -> let x, y = aff.(i) in Fe.set j.x x; Fe.set j.y y) pending;
  Array.map (fun j -> if Fe.is_zero j.z then None else Some (Fe.to_nat j.x, Fe.to_nat j.y)) js

let to_affine pt = (to_affine_batch [| pt |]).(0)

let of_affine (x, y) = affine_point (Fe.of_nat x) (Fe.of_nat y)

(* dst := x^3 + 7. *)
let curve_rhs dst x =
  Fe.sqr dst x;
  Fe.mul dst dst x;
  Fe.add dst dst seven

let on_curve (x, y) =
  let lhs = Fe.of_nat y and rhs = Fe.make () in
  Fe.sqr lhs lhs;
  curve_rhs rhs (Fe.of_nat x);
  Fe.equal lhs rhs

(* --- the group law on registers ----------------------------------------- *)

(* r := 2a by dbl-2007-bl with a = 0. The identity (Z = 0) and a
   point with y = 0 both double to Z3 = 0 through the formula itself.
   [r] may be [a]. *)
let dbl s r a =
  Fe.sqr s.t0 a.x;
  Fe.sqr s.t1 a.y;
  Fe.sqr s.t2 s.t1;
  Fe.sqr s.t3 a.z;
  (* S = 2 ((X + YY)^2 - XX - YYYY) *)
  Fe.add s.t4 a.x s.t1;
  Fe.sqr s.t4 s.t4;
  Fe.sub s.t4 s.t4 s.t0;
  Fe.sub s.t4 s.t4 s.t2;
  Fe.add s.t4 s.t4 s.t4;
  (* M = 3 XX *)
  Fe.add s.t5 s.t0 s.t0;
  Fe.add s.t5 s.t5 s.t0;
  (* Z3 = (Y + Z)^2 - YY - ZZ, X3 = M^2 - 2 S, Y3 = M (S - X3) - 8 YYYY *)
  Fe.add s.t6 a.y a.z;
  Fe.sqr s.t6 s.t6;
  Fe.sub s.t6 s.t6 s.t1;
  Fe.sub r.z s.t6 s.t3;
  Fe.sqr s.t6 s.t5;
  Fe.sub s.t6 s.t6 s.t4;
  Fe.sub r.x s.t6 s.t4;
  Fe.sub s.t4 s.t4 r.x;
  Fe.mul s.t4 s.t5 s.t4;
  Fe.add s.t2 s.t2 s.t2;
  Fe.add s.t2 s.t2 s.t2;
  Fe.add s.t2 s.t2 s.t2;
  Fe.sub r.y s.t4 s.t2

(* The tail shared by both additions: from H (t1), R = 2 (S2 - S1)
   (t2), U1 (t3), S1 (t4) and Z3 (in t6), r := (R^2 - J - 2V,
   R (V - X3) - 2 S1 J, Z3) with I = (2H)^2, J = H I, V = U1 I. *)
let add_tail s r =
  Fe.add s.t0 s.t1 s.t1;
  Fe.sqr s.t0 s.t0;
  Fe.mul s.t5 s.t1 s.t0;
  Fe.mul s.t3 s.t3 s.t0;
  Fe.sqr s.t7 s.t2;
  Fe.sub s.t7 s.t7 s.t5;
  Fe.sub s.t7 s.t7 s.t3;
  Fe.sub r.x s.t7 s.t3;
  Fe.sub s.t3 s.t3 r.x;
  Fe.mul s.t3 s.t2 s.t3;
  Fe.mul s.t4 s.t4 s.t5;
  Fe.add s.t4 s.t4 s.t4;
  Fe.sub r.y s.t3 s.t4;
  Fe.set r.z s.t6

(* r := a + b by add-2007-bl. An identity operand yields the other one
   and equal operands fall back to [dbl]; opposite operands need no
   case, since their H = 0 makes Z3 = 0. [r] may be [a] or [b]. *)
let add_j s r a b =
  if Fe.is_zero a.z then copy r b
  else if Fe.is_zero b.z then copy r a
  else begin
    Fe.sqr s.t0 a.z;
    Fe.sqr s.t5 b.z;
    Fe.mul s.t3 a.x s.t5;
    Fe.mul s.t1 b.x s.t0;
    Fe.sub s.t1 s.t1 s.t3;
    Fe.mul s.t4 a.y b.z;
    Fe.mul s.t4 s.t4 s.t5;
    Fe.mul s.t2 b.y a.z;
    Fe.mul s.t2 s.t2 s.t0;
    Fe.sub s.t2 s.t2 s.t4;
    Fe.add s.t2 s.t2 s.t2;
    if Fe.is_zero s.t1 && Fe.is_zero s.t2 then dbl s r a
    else begin
      (* Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) H *)
      Fe.add s.t6 a.z b.z;
      Fe.sqr s.t6 s.t6;
      Fe.sub s.t6 s.t6 s.t0;
      Fe.sub s.t6 s.t6 s.t5;
      Fe.mul s.t6 s.t6 s.t1;
      add_tail s r
    end
  end

(* r := a + (x2, y2) for a finite affine operand, by madd-2007-bl: the
   Z2 arithmetic of [add_j] drops out (~30% fewer field mults). Same
   cases as [add_j]. [x2] and [y2] must not be registers of [r]. *)
let madd s r a x2 y2 =
  if Fe.is_zero a.z then begin
    Fe.set r.x x2;
    Fe.set r.y y2;
    Fe.set_one r.z
  end
  else begin
    Fe.sqr s.t0 a.z;
    Fe.mul s.t1 x2 s.t0;
    Fe.sub s.t1 s.t1 a.x;
    Fe.mul s.t2 a.z s.t0;
    Fe.mul s.t2 y2 s.t2;
    Fe.sub s.t2 s.t2 a.y;
    Fe.add s.t2 s.t2 s.t2;
    if Fe.is_zero s.t1 && Fe.is_zero s.t2 then dbl s r a
    else begin
      (* Z3 = 2 Z1 H *)
      Fe.mul s.t6 a.z s.t1;
      Fe.add s.t6 s.t6 s.t6;
      Fe.set s.t3 a.x;
      Fe.set s.t4 a.y;
      add_tail s r
    end
  end

let double p =
  let r = loaded p in
  dbl (scratch ()) r r;
  store r

(* An affine [q] (Z = 1: decoded points, table entries) takes the
   mixed add. *)
let add p q =
  let r = loaded p and b = loaded q and s = scratch () in
  if Fe.equal b.z one then madd s r r b.x b.y else add_j s r r b;
  store r

let neg p =
  let r = loaded p in
  Fe.neg r.y r.y;
  store r

let sub p q = add p (neg q)

(* 4-bit window digit w of scalar k (little-endian window index). *)
let window4 k w =
  (if Nat.testbit k (4*w) then 1 else 0)
  lor (if Nat.testbit k (4*w + 1) then 2 else 0)
  lor (if Nat.testbit k (4*w + 2) then 4 else 0)
  lor (if Nat.testbit k (4*w + 3) then 8 else 0)

(* Scalar multiplication for secret scalars: fixed 4-bit windows,
   MSB-first. The window count is fixed by the order's bit length and
   every window performs four doublings, one table lookup and one add
   (the d = 0 slot holds the identity), so the sequence of group
   operations does not depend on the scalar's value — see the timing
   contract in curve.mli. *)
let mul k pt =
  let k = Modular.reduce scalar_field k in
  let s = scratch () in
  let tbl = Array.init 16 (fun _ -> jac ()) in
  load pt tbl.(1);
  for d = 2 to 15 do add_j s tbl.(d) tbl.(d - 1) tbl.(1) done;
  let windows = (Nat.bit_length order + 3) / 4 in
  let acc = jac () in
  for w = windows - 1 downto 0 do
    for _ = 1 to 4 do dbl s acc acc done;
    add_j s acc acc tbl.(window4 k w)
  done;
  store acc

let mul_int k pt =
  if k < 0 then invalid_arg "Curve.mul_int: negative scalar";
  mul (Nat.of_int k) pt

(* Width-w wNAF digit expansion: MSB-first list of odd digits in
   {0, +-1, +-3, ..., +-(2^(w-1)-1)}, adjacent nonzero digits separated
   by at least w-1 zeros. Works on the scalar's raw bytes with an int
   carry — per-bit bignum arithmetic would dominate msm setup time.
   Consing while consuming the scalar LSB-first leaves the most
   significant digit at the head. *)
let wnaf w k =
  if Nat.is_zero k then []
  else begin
    let half = 1 lsl (w - 1) in
    let full = 1 lsl w in
    let bytes = Nat.to_bytes_be k in
    let nb = String.length bytes in
    let bit i =
      let byte = nb - 1 - (i lsr 3) in
      if byte < 0 then 0 else (Char.code (String.unsafe_get bytes byte) lsr (i land 7)) land 1
    in
    let nbits = 8 * nb in
    let digits = ref [] in
    let carry = ref 0 in
    let i = ref 0 in
    while !i < nbits || !carry = 1 do
      let b = bit !i + !carry in
      if b land 1 = 0 then begin
        carry := b lsr 1;
        digits := 0 :: !digits;
        incr i
      end else begin
        (* odd position: take w bits; subtracting 2^w when the window
           tops 2^(w-1)-1 pushes a carry into the next window *)
        let d = ref b in
        for j = 1 to w - 1 do d := !d lor (bit (!i + j) lsl j) done;
        let d, c = if !d >= half then (!d - full, 1) else (!d, 0) in
        carry := c;
        digits := d :: !digits;
        for _ = 1 to w - 1 do digits := 0 :: !digits done;
        i := !i + w
      end
    done;
    (* trim leading zeros so digit-string lengths stay tight *)
    let rec drop = function 0 :: tl -> drop tl | l -> l in
    drop !digits
  end

(* Variable-time scalar multiplication by width-5 wNAF: ~51 adds for a
   256-bit scalar instead of the ~64 a 4-bit window needs, and zero
   digits cost only a double. The odd multiples 1P .. 15P stay in
   Jacobian registers; a negative digit negates its entry's y into
   [ey]. Public inputs only — see curve.mli. *)
let mul_vartime_j s k pt =
  let acc = jac () in
  let k = Modular.reduce scalar_field k in
  if not (Nat.is_zero k || is_infinity pt) then begin
    let tbl = Array.init 8 (fun _ -> jac ()) and p2 = jac () in
    load pt tbl.(0);
    dbl s p2 tbl.(0);
    for i = 1 to 7 do add_j s tbl.(i) tbl.(i - 1) p2 done;
    List.iter
      (fun d ->
         dbl s acc acc;
         if d > 0 then add_j s acc acc tbl.(d / 2)
         else if d < 0 then begin
           let e = tbl.((-d) / 2) in
           Fe.neg s.ey e.y;
           add_j s acc acc { e with y = s.ey }
         end)
      (wnaf 5 k)
  end;
  acc

let mul_vartime k pt = store (mul_vartime_j (scratch ()) k pt)

let equal p q =
  match is_infinity p, is_infinity q with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
    (* cross-multiply to compare without inversion *)
    let a = loaded p and b = loaded q and s = scratch () in
    Fe.sqr s.t0 a.z;
    Fe.sqr s.t1 b.z;
    Fe.mul s.t2 a.x s.t1;
    Fe.mul s.t3 b.x s.t0;
    Fe.mul s.t0 s.t0 a.z;
    Fe.mul s.t1 s.t1 b.z;
    Fe.mul s.t4 a.y s.t1;
    Fe.mul s.t5 b.y s.t0;
    Fe.equal s.t2 s.t3 && Fe.equal s.t4 s.t5

(* The GLV constants for secp256k1: lambda, beta and the short lattice
   basis, as in libsecp256k1. They are verified algebraically below,
   and a bad constant raises rather than let [msm] produce wrong
   results. *)
let glv = {
  e_lambda = Nat.of_hex "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72";
  e_beta = Fe.of_nat (Nat.of_hex "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
  e_a1 = Nat.of_hex "3086d221a7d46bcde86c90e49284eb15";
  e_b1 = Nat.of_hex "e4437ed6010e88286f547fa90abfe4c3";
  e_a2 = Nat.of_hex "114ca50f7a8e2f3f657c1108d9d44cfd8";
  e_b2 = Nat.of_hex "3086d221a7d46bcde86c90e49284eb15";
}

(* Accept the endomorphism only if it checks out, once per process,
   when the module initializes: beta must be a nontrivial cube root of
   unity mod p (so (x, y) -> (beta*x, y) maps the curve, whose a = 0, to
   itself), (beta*gx, gy) must equal lambda*G (pinning the map to
   multiplication by lambda rather than lambda^2), and the lattice basis
   must satisfy a1 = b1*lambda and a2 = -b2*lambda (mod n). *)
let () =
  let fn = scalar_field in
  let cube = Fe.make () and g = loaded generator in
  Fe.sqr cube glv.e_beta;
  Fe.mul cube cube glv.e_beta;
  Fe.mul g.x g.x glv.e_beta;
  let valid =
    not (Fe.equal glv.e_beta one)
    && Fe.equal cube one
    && Nat.equal (Modular.mul fn glv.e_b1 glv.e_lambda) (Modular.reduce fn glv.e_a1)
    && Nat.is_zero
         (Modular.add fn (Modular.reduce fn glv.e_a2) (Modular.mul fn glv.e_b2 glv.e_lambda))
    (* lint: allow secret-taint — curve constants and the generator are public *)
    && equal (store g) (mul_vartime glv.e_lambda generator)
  in
  if not valid then invalid_arg "Curve: the GLV constants do not check out"

(* --- signed-odd comb tables -------------------------------------------- *)

(* A comb table of width w over a fixed base B has W = ceil(bits(n) / w)
   rows; row i holds the odd multiples (2j+1) * 2^(w*i) * B for
   j = 0 .. 2^(w-1) - 1, every entry finite and affine.

   Recoding. For d = (k + 2^(wW) - 1) / 2 mod n with base-2^w digits
   b_i, the signed digits e_i = 2 b_i - (2^w - 1) are odd, lie in
   [-(2^w - 1), 2^w - 1], and satisfy sum_i e_i 2^(wi) = 2d - (2^(wW) - 1)
   = k (mod n). The top bit of b_i is the sign of e_i and the low w-1
   bits, flipped for a negative digit, give j with |e_i| = 2j + 1; the
   lookup is index arithmetic plus a select between y and -y, with no
   branch on the digit.

   Why the comb's additions are safe. Summing rows from i = 0 up, the
   accumulator before row j (1 <= j <= W-2) is S_j * B with
   S_j = sum_{i<j} e_i 2^(wi), an odd integer with |S_j| <= 2^(wj) - 1,
   and the addend is T_j = e_j 2^(wj) * B with |e_j 2^(wj)| >= 2^(wj).
   So S_j -+ e_j 2^(wj) is nonzero and smaller than 2^(w(j+1))
   <= 2^(w(W-1)) <= 2^(bits-1) <= n in absolute value: never a multiple
   of n, so the accumulator is never the identity, never equal to T_j
   and never its negation. Only the last row can meet an exceptional
   case: the opposite one iff k = 0, the equal one iff
   k = +-2 (2^w - 1) 2^(w(W-1)) mod n. *)
type base_table = {
  width : int;
  entries : int array array;
  (* row i holds (2j+1) * 2^(w*i) * B for each j: x at 10 j and y at
     10 j + 5, packed by [Fe.pack]; no rows iff B is the identity *)
  offset : Nat.t;          (* 2^(wW) - 1 mod n *)
  bit : bool;              (* a {!mul_base_batch} term's scalar is 0 or 1 *)
}

(* Affine additions P_i + Q_i with slopes num.(i) / den.(i), every den
   nonzero, sharing one inversion ([batch_inv]): x3 = l^2 - x1 - x2 and
   y3 = l (x1 - x3) - y1 go to (x3s.(i), y3s.(i)), which may be
   (x1.(i), y1.(i)) or (num.(i), den.(i)). A tangent has slope
   3 x1^2 / (2 y1) with x2 = x1. *)
let slope_step ~num ~den x1 y1 x2 ~x3s ~y3s =
  let inv = batch_inv den in
  let l = Fe.make () and x3 = Fe.make () and d = Fe.make () in
  for i = 0 to Array.length den - 1 do
    Fe.mul l num.(i) inv.(i);
    Fe.sqr x3 l;
    Fe.sub x3 x3 x1.(i);
    Fe.sub x3 x3 x2.(i);
    Fe.sub d x1.(i) x3;
    Fe.mul d l d;
    Fe.sub y3s.(i) d y1.(i);
    Fe.set x3s.(i) x3
  done

let tangent_step ax ay =
  let num =
    Array.map
      (fun x ->
         let d = Fe.make () and xx = Fe.make () in
         Fe.sqr xx x;
         Fe.add d xx xx;
         Fe.add d d xx;
         d)
      ax
  in
  let den = Array.map (fun y -> let d = Fe.make () in Fe.add d y y; d) ay in
  slope_step ~num ~den ax ay ax ~x3s:ax ~y3s:ay

(* Complete affine additions (ax, ay, ainf) += (bx, by, binf), where a
   set [inf] flag marks the identity. The unified slope
   (x1^2 + x1 x2 + x2^2) / (y1 + y2) serves both P <> +-Q and P = Q;
   when y1 + y2 = 0 the chord slope takes over, and a zero chord
   denominator as well means P = -Q, whose sum is the identity (its
   denominator is replaced by 1 so the shared inversion stays defined).
   Every lane runs the same field operations, and the flags only pick
   among the computed values through mask selects. *)
let complete_step ax ay ainf bx by binf =
  let n = Array.length ax in
  let num = Array.init n (fun _ -> Fe.make ()) and den = Array.init n (fun _ -> Fe.make ()) in
  let opposite = Array.make n 0 in
  let du = Fe.make () and dc = Fe.make () and nc = Fe.make () in
  for i = 0 to n - 1 do
    let x1 = ax.(i) and y1 = ay.(i) and x2 = bx.(i) and y2 = by.(i) and nu = num.(i) in
    Fe.add du y1 y2;
    Fe.add nu x1 x2;
    Fe.sqr nu nu;
    Fe.mul nc x1 x2;
    Fe.sub nu nu nc;
    Fe.sub dc x2 x1;
    Fe.sub nc y2 y1;
    let chord = Bool.to_int (Fe.is_zero du) in
    Fe.select num.(i) chord nc nu;
    Fe.select den.(i) chord dc du;
    opposite.(i) <- Bool.to_int (Fe.is_zero den.(i));
    Fe.select den.(i) opposite.(i) one den.(i)
  done;
  (* the sums replace the slopes' numerators and denominators *)
  slope_step ~num ~den ax ay bx ~x3s:num ~y3s:den;
  for i = 0 to n - 1 do
    (* b = O keeps a; else a = O takes b; else the sum, O if opposite *)
    let bi = Bool.to_int binf.(i) and ai = Bool.to_int ainf.(i) in
    Fe.select num.(i) ai bx.(i) num.(i);
    Fe.select den.(i) ai by.(i) den.(i);
    Fe.select ax.(i) bi ax.(i) num.(i);
    Fe.select ay.(i) bi ay.(i) den.(i);
    ainf.(i) <- (bi land ai) lor ((1 - bi) land (1 - ai) land opposite.(i)) = 1
  done

(* One chord row of a lockstep group: lane a adds its row entry ([ex a x]
   writes its x, [ey a y] its signed y) to (cx.(a), cy.(a)) in place,
   every lane sharing one inversion. Only the prefix products are kept
   between the two passes; the backward pass recomputes each lane's
   slope. The table build runs its chord steps through it too. *)
let comb_row cx cy prefix ex ey =
  let run = Fe.make () and d = Fe.make () and l = Fe.make () in
  let x2 = Fe.make () and y2 = Fe.make () and x3 = Fe.make () in
  Fe.set_one run;
  for a = 0 to Array.length prefix - 1 do
    Fe.set prefix.(a) run;
    ex a x2;
    Fe.sub d x2 cx.(a);
    Fe.mul run run d
  done;
  Fe.inv run run;
  for a = Array.length prefix - 1 downto 0 do
    let x1 = cx.(a) and y1 = cy.(a) in
    ex a x2;
    ey a y2;
    Fe.mul l run prefix.(a);
    Fe.sub d x2 x1;
    Fe.mul run run d;
    Fe.sub d y2 y1;
    Fe.mul l l d;
    Fe.sqr x3 l;
    Fe.sub x3 x3 x1;
    Fe.sub x3 x3 x2;
    Fe.sub d x1 x3;
    Fe.mul d l d;
    Fe.sub y1 d y1;
    Fe.set x1 x3
  done

(* The table is built in affine coordinates across all rows at once, so
   each step shares one inversion: the row bases 2^(w*i) * B come from
   doubling and one batch normalization; then, with D = 2c * B_i
   (a tangent, starting at c = 1), entries c .. 2c-1 are the chords
   entries 0 .. c-1 plus D. No denominator vanishes in a group of odd
   prime order: y = 0 would make a point 2-torsion, and a chord through
   (2j+1) B_i and 2c B_i with 2j+1 < 2c <= 2^(w-1) would need
   2j+1 = +-2c mod n. *)
let make_base_table ~width pt =
  if width < 2 || width > 10 then invalid_arg "Curve.make_base_table: width";
  let fn = scalar_field in
  let rows = (Nat.bit_length order + width - 1) / width in
  let offset =
    Modular.reduce fn (Nat.sub (Nat.shift_left Nat.one (width * rows)) Nat.one)
  in
  if is_infinity pt then { width; entries = [||]; offset; bit = false }
  else begin
    let s = scratch () in
    let bases = Array.init rows (fun _ -> jac ()) in
    load pt bases.(0);
    for i = 1 to rows - 1 do
      copy bases.(i) bases.(i - 1);
      for _ = 1 to width do dbl s bases.(i) bases.(i) done
    done;
    (* (dx, dy) starts at the row bases (finite: the order is odd) and
       becomes D *)
    let dx, dy = Array.split (normalize bases) in
    let h = 1 lsl (width - 1) in
    let entries = Array.init rows (fun _ -> Array.make (10 * h) 0) in
    Array.iteri (fun i row -> Fe.pack dx.(i) row 0; Fe.pack dy.(i) row 5) entries;
    tangent_step dx dy;
    let c = ref 1 in
    while !c < h do
      (* one chord step: lane a = i * c0 + j makes entry c0 + j of row i *)
      let c0 = !c in
      let lanes f = Array.init (rows * c0) (fun a -> f entries.(a / c0) (10 * (a mod c0))) in
      let read off = lanes (fun row at -> let v = Fe.make () in Fe.unpack row (at + off) v; v) in
      let ex = read 0 and ey = read 5 in
      comb_row ex ey (lanes (fun _ _ -> Fe.make ()))
        (fun a x -> Fe.set x dx.(a / c0)) (fun a y -> Fe.set y dy.(a / c0));
      let write off =
        Array.iteri (fun a v -> Fe.pack v entries.(a / c0) ((10 * (c0 + (a mod c0))) + off))
      in
      write 0 ex;
      write 5 ey;
      if 2 * c0 < h then tangent_step dx dy;
      c := 2 * c0
    done;
    { width; entries; offset; bit = false }
  end

let base_table_rows (table : base_table) =
  Array.map
    (fun row ->
       Array.init (Array.length row / 10) (fun j ->
           let x = Fe.make () and y = Fe.make () in
           Fe.unpack row (10 * j) x;
           Fe.unpack row ((10 * j) + 5) y;
           affine_point x y))
    table.entries

(* The recoding d of [k] (see above) as big-endian bytes, which hold the
   table's digits b_i: b_i is bits w*i .. w*i + w - 1 of d. Only called
   on tables with rows. A lane of a lockstep group keeps these few bytes
   rather than an array of its digits. *)
let comb_digits (table : base_table) k =
  let fn = scalar_field in
  (* s = k + 2^(wW) - 1 mod n; halving mod n adds n to an odd s first *)
  let s = Modular.add fn (Modular.reduce fn k) table.offset in
  let odd = Nat.of_int (Bool.to_int (Nat.is_odd s)) in
  let d = Nat.shift_right (Nat.add s (Nat.mul odd order)) 1 in
  Nat.to_bytes_be ~len:(((table.width * Array.length table.entries) + 7) / 8) d

(* Digit b_i: w <= 10 bits at offset w*i span at most three bytes. *)
let comb_digit (table : base_table) digits i =
  let nb = String.length digits in
  let o = table.width * i in
  let v = ref 0 in
  for j = min (nb - 1) ((o lsr 3) + 2) downto o lsr 3 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get digits (nb - 1 - j))
  done;
  (!v lsr (o land 7)) land ((1 lsl table.width) - 1)

(* Row i's entry for recoded digit b is e * 2^(w*i) * B with
   e = 2b - (2^w - 1): column j of the row, where |e| = 2j + 1, and its
   y negated when the top bit of b is clear. [comb_x] unpacks the x into
   [x]; [comb_y] unpacks the y into [y] and negates it or not by a select,
   with [tmp] as scratch. *)
let comb_column (table : base_table) b =
  let h = 1 lsl (table.width - 1) in
  let s = b lsr (table.width - 1) in
  b land (h - 1) lxor ((s - 1) land (h - 1))

let comb_x (table : base_table) i b x = Fe.unpack table.entries.(i) (10 * comb_column table b) x

let comb_y (table : base_table) i b y tmp =
  Fe.unpack table.entries.(i) ((10 * comb_column table b) + 5) y;
  Fe.neg tmp y;
  Fe.select y (b lsr (table.width - 1)) y tmp


(* acc := acc + k * B off the comb table: one lookup and one mixed add
   per row and no doublings, since each row carries its 2^(w*i) factor. *)
let comb_rows s acc (table : base_table) k =
  let rows = Array.length table.entries in
  if rows > 0 then begin
    let digits = comb_digits table k in
    for i = 0 to rows - 1 do
      let b = comb_digit table digits i in
      comb_x table i b s.ex;
      comb_y table i b s.ey s.t0;
      madd s acc acc s.ex s.ey
    done
  end

(* Fixed-base multiplication off the comb table: the first row's add
   takes the accumulator from the identity to the row's entry, and
   every row does one lookup and one add, so the group-operation
   sequence does not depend on the scalar; only the last add can meet
   the equal or opposite case (see above), which [madd] handles. *)
let mul_base_table (table : base_table) k =
  let acc = jac () in
  comb_rows (scratch ()) acc table k;
  store acc

(* Strauss-Shamir shared-accumulator computation of u*B + v*P, where B
   is the fixed base behind [table]. The v*P half runs width-5 wNAF
   (doublings + sparse adds); the u*B half needs no doublings of its
   own, so its comb-table mixed adds simply fold into the same
   accumulator — one joint chain instead of two multiplications plus a
   final add. Variable time; public inputs only. *)
let mul2 (table : base_table) u v p =
  let s = scratch () in
  let acc = mul_vartime_j s v p in
  comb_rows s acc table u;
  store acc

(* --- lockstep batch of fixed-base multiplications ---------------------- *)

type comb_job = (base_table * Nat.t) list

let batch_group = 1024

let bit_table (table : base_table) = { table with bit = true }

let comb_lanes (job : comb_job) =
  List.length (List.filter (fun ((table : base_table), _) -> not table.bit) job)

(* One lockstep group: a lane per comb term (a term not on a bit table)
   walks its table's rows in affine coordinates, every lane of a row
   count together, so each row costs one inversion shared by the whole
   group. Rows 1 .. W-2 are chords, safe by the recoding argument above;
   row W-1 is a complete step. A bit term b * B runs no rows: it enters
   the merge as B itself, flagged as the identity when b = 0. The terms
   of a multi-term job then merge with complete steps, one round per
   extra term, which run the same field operations whatever the flags.
   Lane values are Fe elements allocated once per group and overwritten
   in place. *)
let lockstep_group (jobs : comb_job array) lo hi out =
  let terms =
    Array.of_list
      (List.concat
         (List.init (hi - lo) (fun q ->
              List.map (fun (table, k) -> (q, table, k)) jobs.(lo + q))))
  in
  let nl = Array.length terms in
  (* every slot is replaced below: by a comb lane's accumulator, a bit
     term's base, or a fresh identity for a table without rows *)
  let rx = Array.make nl [||] and ry = Array.make nl [||] in
  let rinf = Array.make nl true in
  let rows_of l = let _, table, _ = terms.(l) in Array.length table.entries in
  let lanes =
    List.filter (fun l -> let _, table, _ = terms.(l) in not table.bit) (List.init nl Fun.id)
  in
  List.iter
    (fun rows ->
       let idx = Array.of_list (List.filter (fun l -> rows_of l = rows) lanes) in
       if rows > 0 then begin
         let na = Array.length idx in
         let tables = Array.map (fun l -> let _, table, _ = terms.(l) in table) idx in
         let digits = Array.map (fun l -> let _, table, k = terms.(l) in comb_digits table k) idx in
         let tmp = Fe.make () in
         let ex i a x = comb_x tables.(a) i (comb_digit tables.(a) digits.(a) i) x in
         let ey i a y = comb_y tables.(a) i (comb_digit tables.(a) digits.(a) i) y tmp in
         let fresh read i = Array.init na (fun a -> let v = Fe.make () in read i a v; v) in
         let cx = fresh ex 0 and cy = fresh ey 0 in
         let prefix = Array.init na (fun _ -> Fe.make ()) in
         for i = 1 to rows - 2 do comb_row cx cy prefix (ex i) (ey i) done;
         let ainf = Array.make na false in
         if rows >= 2 then
           complete_step cx cy ainf (fresh ex (rows - 1)) (fresh ey (rows - 1))
             (Array.make na false);
         Array.iteri (fun a l -> rx.(l) <- cx.(a); ry.(l) <- cy.(a); rinf.(l) <- ainf.(a)) idx
       end
       else Array.iter (fun l -> rx.(l) <- Fe.make (); ry.(l) <- Fe.make ()) idx)
    (List.sort_uniq Int.compare (List.map rows_of lanes));
  Array.iteri
    (fun l (_, (table : base_table), k) ->
       if table.bit then begin
         if Nat.compare k Nat.one > 0 then invalid_arg "Curve.mul_base_batch: bit term above 1";
         let x = Fe.make () and y = Fe.make () in
         (* entry 0 of row 0 is 1 * B *)
         if Array.length table.entries > 0 then begin
           Fe.unpack table.entries.(0) 0 x;
           Fe.unpack table.entries.(0) 5 y
         end;
         rx.(l) <- x;
         ry.(l) <- y;
         rinf.(l) <- Array.length table.entries = 0 || not (Nat.is_odd k)
       end)
    terms;
  (* merge: job q's terms are the consecutive slots first.(q) .. *)
  let n = hi - lo in
  let first = Array.make n 0 and nterms = Array.make n 0 in
  Array.iteri
    (fun l (q, _, _) -> if nterms.(q) = 0 then first.(q) <- l; nterms.(q) <- nterms.(q) + 1)
    terms;
  let lead r = Array.init n (fun q -> if nterms.(q) = 0 then Fe.make () else r.(first.(q))) in
  let jx = lead rx and jy = lead ry in
  let jinf = Array.init n (fun q -> nterms.(q) = 0 || rinf.(first.(q))) in
  let max_terms = Array.fold_left max 0 nterms in
  for r = 1 to max_terms - 1 do
    let idx = Array.of_list (List.filter (fun q -> nterms.(q) > r) (List.init n Fun.id)) in
    let gather a = Array.map (fun q -> a.(q)) idx in
    let term a = Array.map (fun q -> a.(first.(q) + r)) idx in
    let ainf = gather jinf in
    (* jx and jy hold the accumulators themselves, updated in place *)
    complete_step (gather jx) (gather jy) ainf (term rx) (term ry) (term rinf);
    Array.iteri (fun a q -> jinf.(q) <- ainf.(a)) idx
  done;
  for q = 0 to n - 1 do
    out.(lo + q) <- (if jinf.(q) then infinity else affine_point jx.(q) jy.(q))
  done

let mul_base_batch (jobs : comb_job array) =
  let n = Array.length jobs in
  let out = Array.make n infinity in
  let groups = (n + batch_group - 1) / batch_group in
  for g = 0 to groups - 1 do
    lockstep_group jobs (g * n / groups) ((g + 1) * n / groups) out
  done;
  out


(* --- multi-scalar multiplication (batch verification kernel) ---------- *)

(* GLV decomposition k = k1 + k2*lambda (mod n), both halves ~128 bits.
   c1 = round(b2*k/n) and c2 = round(b1*k/n) project k onto the short
   basis; k1 = k - c1*a1 - c2*a2 and k2 = c1*b1 - c2*b2 come out signed,
   returned as (negate, magnitude). The identity holds for *any* c1,
   c2 once the initialization check has passed the basis congruences —
   the rounding only controls how short the halves are, never
   soundness. *)
let endo_split k =
  (* n is within 2^-127 of 2^bits, so dividing by n rounds the same as
     shifting by bits up to +-2 — which only lengthens the halves by a
     couple of bits, never breaks the k1 + k2*lambda identity. *)
  let bits = Nat.bit_length order in
  let round_div num = Nat.shift_right num bits in
  let c1 = round_div (Nat.mul glv.e_b2 k) in
  let c2 = round_div (Nat.mul glv.e_b1 k) in
  let signed_sub a b =
    if Nat.compare a b >= 0 then (false, Nat.sub a b) else (true, Nat.sub b a)
  in
  let k1 = signed_sub k (Nat.add (Nat.mul c1 glv.e_a1) (Nat.mul c2 glv.e_a2)) in
  let k2 = signed_sub (Nat.mul c1 glv.e_b1) (Nat.mul c2 glv.e_b2) in
  (k1, k2)

(* The odd-multiple tables of finite points, sizes.(j) entries for
   pts.(j). The points and their doubles share one inversion, so every
   entry after the first is a mixed add; the entries share a second.
   The phi-images cost one multiplication per entry, since
   phi(x, y) = (beta x, y). *)
let odd_tables s (pts : jac array) sizes =
  let n = Array.length pts in
  let twice = Array.map (fun p -> let d = jac () in dbl s d p; d) pts in
  let base = normalize (Array.append pts twice) in
  let entry j sz =
    let (x1, y1), (x2, y2) = (base.(j), base.(n + j)) in
    let e = Array.init sz (fun _ -> jac ()) in
    copy e.(0) { x = x1; y = y1; z = one };
    for i = 1 to sz - 1 do madd s e.(i) e.(i - 1) x2 y2 done;
    e
  in
  let aff = normalize (Array.concat (Array.to_list (Array.mapi entry sizes))) in
  let k = ref 0 in
  Array.map
    (fun sz ->
       let packed () = Array.make (5 * sz) 0 in
       let tb = { ox = packed (); oy = packed (); obx = packed () } in
       for i = 0 to sz - 1 do
         let x, y = aff.(!k) in
         incr k;
         Fe.pack x tb.ox (5 * i);
         Fe.pack y tb.oy (5 * i);
         Fe.mul x x glv.e_beta;
         Fe.pack x tb.obx (5 * i)
       done;
       tb)
    sizes

(* Joint Strauss for small-to-medium batches: per-point wNAF digit
   strings share one doubling chain, so n points cost ~256 doubles
   total plus sparse adds each, instead of n*(256 doubles + adds) run
   serially. The per-point odd-multiple tables are affine, so every
   digit add is a mixed add.

   Each digit string walks one table, negating the entries' y for a
   negative digit. By the GLV endomorphism, a full-width scalar splits
   into two ~128-bit strings — the second walking the
   phi-images of the first's table — which halves the length of the
   shared doubling chain; a negative half flips its digits' signs.
   Scalars already short enough to be single strings (the batch
   verifiers' 128-bit random weights) get width-4 tables instead: with
   only one string amortizing the table, the smaller build wins. *)
let msm_strauss s (pairs : (Nat.t * point) array) =
  (* per-pair odd-multiple table size: 4 = single short string (the
     batch verifiers' 128-bit weights), 8 = full width / GLV *)
  let sizes =
    Array.map (fun (k, _) -> if Nat.bit_length k <= 140 then 4 else 8) pairs
  in
  let tables = odd_tables s (Array.map (fun (_, p) -> loaded p) pairs) sizes in
  let walk w tb phi (negate, m) =
    if Nat.is_zero m then [] else [ (Array.of_list (wnaf w m), tb, phi, negate) ]
  in
  let split tb k = let k1, k2 = endo_split k in walk 5 tb false k1 @ walk 5 tb true k2 in
  let walks =
    List.concat
      (List.mapi
         (fun j (k, _) ->
            if sizes.(j) = 4 then walk 4 tables.(j) false (false, k) else split tables.(j) k)
         (Array.to_list pairs))
  in
  let maxlen = List.fold_left (fun m (d, _, _, _) -> max m (Array.length d)) 0 walks in
  (* Resolve every nonzero digit to its table entry up front: the
     doubling loop then walks a per-position add schedule with no
     per-string bookkeeping inside it (shorter digit strings align at
     the least-significant end). Add order within a position is
     irrelevant — the group is abelian. *)
  let sched = Array.make (max maxlen 1) [] in
  List.iter
    (fun (d, tb, phi, negate) ->
       let shift = maxlen - Array.length d in
       Array.iteri
         (fun pos dg ->
            if dg <> 0 then
              sched.(pos + shift) <- (tb, phi, abs dg / 2, (dg < 0) <> negate) :: sched.(pos + shift))
         d)
    walks;
  let acc = jac () in
  for i = 0 to maxlen - 1 do
    dbl s acc acc;
    List.iter
      (fun (tb, phi, j, negate) ->
         Fe.unpack (if phi then tb.obx else tb.ox) (5 * j) s.ex;
         Fe.unpack tb.oy (5 * j) s.ey;
         if negate then Fe.neg s.ey s.ey;
         madd s acc acc s.ex s.ey)
      sched.(i)
  done;
  acc

(* Bucketed Pippenger for large batches: per c-bit window, points
   accumulate into their digit's bucket (mixed adds against the
   batch-normalized inputs) and the window sum comes out of a running
   suffix sum; cost is ~windows * (n + 2^(c+1)) adds + 256 doubles,
   sublinear per point once n dominates the bucket count. *)
let msm_pippenger s ~window:c (pairs : (Nat.t * point) array) =
  let pts = normalize (Array.map (fun (_, p) -> loaded p) pairs) in
  let nbits = Nat.bit_length order in
  let windows = (nbits + c - 1) / c in
  let nbuckets = (1 lsl c) - 1 in
  let buckets = Array.init (nbuckets + 1) (fun _ -> jac ()) in
  let digit k w =
    let base = w * c in
    let d = ref 0 in
    for b = c - 1 downto 0 do
      d := (!d lsl 1) lor (if Nat.testbit k (base + b) then 1 else 0)
    done;
    !d
  in
  let acc = jac () in
  for w = windows - 1 downto 0 do
    if w < windows - 1 then for _ = 1 to c do dbl s acc acc done;
    Array.iter (fun b -> Array.fill b.z 0 10 0) buckets;
    Array.iteri
      (fun i (k, _) ->
         let d = digit k w in
         if d <> 0 then (let x, y = pts.(i) in madd s buckets.(d) buckets.(d) x y))
      pairs;
    (* sum_d d * bucket(d) as a running suffix sum: the suffix sum after
       step d is bucket(d) + ... + bucket(max), and adding it once per
       step contributes each bucket exactly d times *)
    let suffix = jac () and wsum = jac () in
    for d = nbuckets downto 1 do
      add_j s suffix suffix buckets.(d);
      add_j s wsum wsum suffix
    done;
    add_j s acc acc wsum
  done;
  acc

(* Multi-scalar multiplication sum_i k_i * P_i. Strategy is chosen from
   the (post-filtering) batch size: wNAF Strauss while the shared
   doubling chain dominates, bucketed Pippenger once bucket reuse wins;
   [?window] forces the Pippenger path with the given window width
   (differential tests use this to cover both paths at small n).
   Variable time — public scalars and points only (curve.mli). *)
let msm ?window (pairs : (Nat.t * point) array) =
  let s = scratch () in
  (* Scalars of one or two bits (notably the pinned weight 1 some batch
     verifiers use) are cheaper as a couple of direct additions than as
     a table-and-digit-string entry. *)
  let tiny = jac () in
  let keep_tiny k p =
    let j = loaded p in
    if Nat.to_int k <> 1 then begin
      let d = jac () in
      dbl s d j;
      add_j s tiny tiny d
    end;
    if Nat.to_int k <> 2 then add_j s tiny tiny j
  in
  let live =
    Array.of_list
      (List.filter_map
         (fun (k, p) ->
            let k = Modular.reduce scalar_field k in
            if Nat.is_zero k || is_infinity p then None
            else if Nat.bit_length k <= 2 then (keep_tiny k p; None)
            else Some (k, p))
         (Array.to_list pairs))
  in
  let main =
    match window, Array.length live with
    | None, 0 -> jac ()
    | None, 1 -> let k, p = live.(0) in mul_vartime_j s k p
    | None, n when n <= 256 -> msm_strauss s live
    | _ ->
      let c =
        match window with
        | Some c ->
          if c < 1 || c > 16 then invalid_arg "Curve.msm: window out of range";
          c
        | None ->
          let rec ilog2 v = if v <= 1 then 0 else 1 + ilog2 (v lsr 1) in
          min 12 (max 4 (ilog2 (Array.length live) - 2))
      in
      msm_pippenger s ~window:c live
  in
  add_j s main main tiny;
  store main

(* Point encoding: 0x00 for infinity; otherwise 0x04 || X || Y
   (uncompressed, fixed width). *)
let encode pt =
  match to_affine pt with
  | None -> "\x00"
  | Some (x, y) ->
    "\x04" ^ Nat.to_bytes_be ~len:byte_len x ^ Nat.to_bytes_be ~len:byte_len y

let decode s =
  if s = "\x00" then Some infinity
  else if String.length s = 1 + 2 * byte_len && s.[0] = '\x04' then begin
    let x = Nat.of_bytes_be (String.sub s 1 byte_len) in
    let y = Nat.of_bytes_be (String.sub s (1 + byte_len) byte_len) in
    if Nat.compare x Fe.prime < 0 && Nat.compare y Fe.prime < 0 && on_curve (x, y)
    then Some (of_affine (x, y))
    else None
  end
  else None

(* Square root mod p, p = 3 mod 4:
   sqrt(a) = a^((p+1)/4) when a is a quadratic residue, by [Fe.sqrt]. *)
let field_sqrt a =
  let y = Fe.of_nat a in
  if Fe.sqrt y y then Some (Fe.to_nat y) else None

(* A y with y^2 = x^3 + 7, if x is on the curve. *)
let lift_x x =
  let y = Fe.make () in
  curve_rhs y x;
  if Fe.sqrt y y then Some y else None

(* Compressed encoding: 0x00 for infinity, else 0x02/0x03 (y parity)
   followed by X — half the bytes of the uncompressed form. *)
let encode_compressed pt =
  match to_affine pt with
  | None -> "\x00"
  | Some (x, y) ->
    let prefix = if Nat.is_odd y then "\x03" else "\x02" in
    prefix ^ Nat.to_bytes_be ~len:byte_len x

let decode_compressed s =
  if s = "\x00" then Some infinity
  else if String.length s = 1 + byte_len && (s.[0] = '\x02' || s.[0] = '\x03') then begin
    let x = Nat.of_bytes_be (String.sub s 1 byte_len) in
    if Nat.compare x Fe.prime >= 0 then None
    else begin
      let x = Fe.of_nat x in
      match lift_x x with
      | None -> None
      | Some y ->
        (* a fully reduced element's parity is its low limb's *)
        if y.(0) land 1 <> Bool.to_int (s.[0] = '\x03') then Fe.neg y y;
        Some (affine_point x y)
    end
  end
  else None

(* Hash-to-point by try-and-increment on SHA-256 outputs: used to derive
   a second generator H with unknown discrete log w.r.t. G (needed by
   the lifted-ElGamal commitment key). *)
let hash_to_point label =
  let rec try_counter i =
    if i > 1000 then failwith "Curve.hash_to_point: no point found";
    let h = Dd_crypto.Sha256.digest_list [ label; string_of_int i ] in
    let x = Fe.of_nat (Nat.of_bytes_be h) in
    match lift_x x with
    | Some y -> affine_point x y
    | None -> try_counter (i + 1)
  in
  try_counter 0

(* Hash arbitrary bytes to a scalar mod the group order. Parts are
   length-prefixed so that part boundaries are unambiguous (hashing
   ["ab"] differs from ["a"; "b"]). *)
let hash_to_scalar parts =
  let framed =
    List.concat_map (fun p -> [ Printf.sprintf "%010d" (String.length p); p ]) parts
  in
  Modular.of_bytes_be scalar_field (Dd_crypto.Sha256.digest_list framed)
