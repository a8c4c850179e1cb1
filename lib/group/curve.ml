(* The secp256k1 group, y^2 = x^3 + 7 over F_p, with Jacobian-coordinate
   arithmetic (X/Z^2, Y/Z^3). This is the group underlying the paper's
   lifted-ElGamal option-encoding commitments, Chaum-Pedersen proofs,
   and Schnorr signatures (replacing MIRACL).

   Every base-field operation runs on [Fe]'s fixed-width limbs, and
   every scalar is an [Sc]: fixed-width too, fully reduced mod the
   order n. Bytes cross into either only at the edges: the curve
   constants, the codecs and [hash_to_point]. *)

module Fe = Dd_bignum.Fe
module Sc = Dd_bignum.Sc

(* A constant from its big-endian hex digits. *)
let hex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* GLV endomorphism data (secp256k1 has j-invariant 0): with beta a
   primitive cube root of unity mod p, (x, y) -> (beta*x, y) is
   multiplication by the scalar lambda, and (a1, -b1), (a2, b2) is a
   short lattice basis for splitting a 256-bit scalar into two signed
   ~128-bit halves. Used only by the vartime paths: msm and
   the endomorphism tables. *)
type endo = {
  e_lambda : Sc.t;      (* phi(P) = lambda * P *)
  e_beta : Fe.t;        (* phi(x, y) = (beta * x, y) *)
  e_a1 : Sc.t;
  e_b1 : Sc.t;          (* magnitude; the basis vector is (a1, -b1) *)
  e_a2 : Sc.t;
  e_b2 : Sc.t;
  e_g1 : Sc.t;          (* round(2^384 b2 / n), for [endo_split] *)
  e_g2 : Sc.t;          (* round(2^384 b1 / n) *)
}

(* A point is X, Y and Z as [Fe] limbs in one array: X at 0, Y at 10, Z
   at 20. Z = 0 is the identity. A point is never mutated once returned
   ([Group_ctx] recognises G and H by physical equality). *)
type point = int array

(* Jacobian working registers: the engines keep their accumulators and
   tables here and update them in place. *)
type jac = { x : Fe.t; y : Fe.t; z : Fe.t }

(* Temporaries for the formulas, and [ex]/[ey] for a table entry being
   read. A scratch belongs to one call or to one domain's arena, never
   to a module value: those are shared across domains. *)
type scratch = {
  t0 : Fe.t; t1 : Fe.t; t2 : Fe.t; t3 : Fe.t; t4 : Fe.t; t5 : Fe.t; t6 : Fe.t; t7 : Fe.t;
  ex : Fe.t; ey : Fe.t;
}

(* The 32-byte width of an encoded coordinate or scalar, the order's
   bit length, and 2^-1 = (n + 1) / 2 mod n. *)
let byte_len = 32
let order_bits = 256
let half = Sc.of_bytes_mod (hex "7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a1")

(* Draw a uniform scalar in [1, order) from a DRBG. *)
let random_scalar rng =
  let rec draw () =
    match Sc.of_bytes (Dd_crypto.Drbg.bytes rng byte_len) with
    | Some k when not (Sc.is_zero k) -> k
    | _ -> draw ()
  in
  draw ()

(* --- points and registers ---------------------------------------------- *)

let one = let o = Fe.make () in Fe.set_one o; o (* shared, never written *)
let seven = Fe.of_bytes "\x07" (* b, likewise *)

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
    (Fe.of_bytes (hex "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"))
    (Fe.of_bytes (hex "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"))

let is_affine (p : point) = not (is_infinity p) && Fe.equal (loaded p).z one

(* Montgomery's trick: invert the first [n] elements of [xs] (all
   nonzero) into [out] with one field inversion. out.(i) first holds the
   product of the elements before index i; the backward pass peels
   per-element inverses off the inverted total, ~3 field mults per
   element. *)
let batch_inv n (xs : Fe.t array) (out : Fe.t array) =
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
  done

let fe_array n = Array.init n (fun _ -> Fe.make ())

(* The affine (x, y) of finite registers, sharing one inversion. *)
let normalize (js : jac array) =
  let n = Array.length js in
  let zis = fe_array n in
  batch_inv n (Array.map (fun j -> j.z) js) zis;
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
  Array.map (fun j -> if Fe.is_zero j.z then None else Some (j.x, j.y)) js

let to_affine pt = (to_affine_batch [| pt |]).(0)

let of_affine (x, y) = affine_point x y

(* dst := x^3 + 7. *)
let curve_rhs dst x =
  Fe.sqr dst x;
  Fe.mul dst dst x;
  Fe.add dst dst seven

let on_curve (x, y) =
  let lhs = Fe.make () and rhs = Fe.make () in
  Fe.sqr lhs y;
  curve_rhs rhs x;
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

(* --- the variable-time arena ---------------------------------------------- *)

(* Working memory of the variable-time paths, one per domain
   ([Domain.DLS]): [msm]'s packed tables, normalized inputs, buckets and
   digit rows, and the digit row of [mul_vartime]. It grows to the
   largest call and the next call overwrites it, so a call allocates per
   call, not per term. It holds field limbs, digits and indices, never a
   caller's point. *)
type arena = {
  mutable fe : int array;     (* field elements, [Fe.pack]ed *)
  mutable ix : int array;     (* per-term and per-walk integers *)
  mutable dg : Bytes.t;       (* wNAF digit rows *)
  s : scratch;
  acc : jac;
  tiny : jac;
  r1 : jac;
  r2 : jac;
  r3 : jac;
}

(* A scalar below 2^256 has at most 257 + (w - 1) wNAF positions: the
   first digit row holds any. *)
let wnaf_cols = 264

let arena_key =
  Domain.DLS.new_key (fun () ->
      { fe = [||]; ix = [||]; dg = Bytes.create wnaf_cols;
        s = scratch (); acc = jac (); tiny = jac (); r1 = jac (); r2 = jac (); r3 = jac () })

let arena () = Domain.DLS.get arena_key

(* The arena's arrays with room for at least [n] entries. Field
   elements are scratch, so a grown array starts empty; a grown [ix]
   keeps the live terms' indices [msm] writes first. *)
let fe_words a n = if Array.length a.fe < n then a.fe <- Array.make n 0; a.fe

let ix_words a n =
  if Array.length a.ix < n then begin
    let ix = Array.make n 0 in
    Array.blit a.ix 0 ix 0 (Array.length a.ix);
    a.ix <- ix
  end;
  a.ix

let set_identity r = Array.fill r.z 0 10 0

(* Width-w wNAF digits of [k] as signed bytes in dg.(off ..), least
   significant first: odd digits in {+-1, +-3, ..., +-(2^(w-1)-1)}, each
   followed by at least w-1 zeros. Read from k's bits with an int carry;
   returns the number of digits up to the top nonzero one. *)
let wnaf_into w k dg off =
  let nbits = Sc.bit_length k in
  let half = 1 lsl (w - 1) and full = 1 lsl w in
  let i = ref 0 and carry = ref 0 and top = ref 0 in
  while !i < nbits || !carry = 1 do
    let b = Sc.bits k !i 1 + !carry in
    if b land 1 = 0 then begin
      Bytes.set dg (off + !i) '\000';
      carry := b lsr 1;
      incr i
    end
    else begin
      (* odd position: take w bits; subtracting 2^w when the window
         tops 2^(w-1)-1 pushes a carry into the next window *)
      let d = b lor (Sc.bits k (!i + 1) (w - 1) lsl 1) in
      carry := Bool.to_int (d >= half);
      Bytes.set_int8 dg (off + !i) (d - (!carry * full));
      Bytes.fill dg (off + !i + 1) (w - 1) '\000';
      top := !i + 1;
      i := !i + w
    end
  done;
  !top

(* Variable-time scalar multiplication by width-5 wNAF: ~51 adds for a
   256-bit scalar instead of the ~64 a 4-bit window needs, and zero
   digits cost only a double. The odd multiples 1P .. 15P stay in
   Jacobian registers; a negative digit negates its entry's y into
   [ey]. Public inputs only — see curve.mli. *)
let mul_vartime_j s k pt =
  let acc = jac () in
  if not (Sc.is_zero k || is_infinity pt) then begin
    let tbl = Array.init 8 (fun _ -> jac ()) and p2 = jac () in
    load pt tbl.(0);
    dbl s p2 tbl.(0);
    for i = 1 to 7 do add_j s tbl.(i) tbl.(i - 1) p2 done;
    let a = arena () in
    for pos = wnaf_into 5 k a.dg 0 - 1 downto 0 do
      dbl s acc acc;
      let d = Bytes.get_int8 a.dg pos in
      if d > 0 then add_j s acc acc tbl.(d / 2)
      else if d < 0 then begin
        let e = tbl.((-d) / 2) in
        Fe.neg s.ey e.y;
        add_j s acc acc { e with y = s.ey }
      end
    done
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
let glv =
  let sc h = Sc.of_bytes_mod (hex h) in
  { e_lambda = sc "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72";
    e_beta = Fe.of_bytes (hex "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
    e_a1 = sc "3086d221a7d46bcde86c90e49284eb15";
    e_b1 = sc "e4437ed6010e88286f547fa90abfe4c3";
    e_a2 = sc "0114ca50f7a8e2f3f657c1108d9d44cfd8";
    e_b2 = sc "3086d221a7d46bcde86c90e49284eb15";
    e_g1 = sc "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031";
    e_g2 = sc "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71" }

(* Accept the endomorphism only if it checks out, once per process,
   when the module initializes: beta must be a nontrivial cube root of
   unity mod p (so (x, y) -> (beta*x, y) maps the curve, whose a = 0, to
   itself), (beta*gx, gy) must equal lambda*G (pinning the map to
   multiplication by lambda rather than lambda^2), and the lattice basis
   must satisfy a1 = b1*lambda and a2 = -b2*lambda (mod n). *)
let () =
  let cube = Fe.make () and g = loaded generator in
  Fe.sqr cube glv.e_beta;
  Fe.mul cube cube glv.e_beta;
  Fe.mul g.x g.x glv.e_beta;
  let valid =
    not (Fe.equal glv.e_beta one)
    && Fe.equal cube one
    && Sc.equal (Sc.mul glv.e_b1 glv.e_lambda) glv.e_a1
    && Sc.is_zero (Sc.add glv.e_a2 (Sc.mul glv.e_b2 glv.e_lambda))
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
   k = +-2 (2^w - 1) 2^(w(W-1)) mod n.

   An endomorphism table (see [make_endo_tables]) has fewer rows, W
   covering wW bits of a GLV half m rather than the order, and stores
   beta x beside each x: the entry's image under phi, lambda times the
   entry. For an odd m < 2^(wW), m + 2^(wW) - 1 is even and below n, so
   the recoding above is exact over the integers, d = (m + 2^(wW) - 1) / 2,
   and its digits sum to m itself. *)
type base_table = {
  width : int;
  stride : int;            (* words per entry: 10, or 15 with beta x *)
  entries : int array array;
  (* row i holds (2j+1) * 2^(w*i) * B for each j: x at stride * j, y at
     stride * j + 5 and, in an endomorphism table, beta x at
     stride * j + 10, packed by [Fe.pack]; no rows iff B is the
     identity *)
  offset : Sc.t;           (* 2^(wW) - 1 mod n *)
  bit : bool;              (* a {!mul_base_batch} term's scalar is 0 or 1 *)
}

type endo_table = base_table

(* Affine additions P_i + Q_i for i < n with slopes num.(i) / den.(i),
   every den nonzero, sharing one inversion ([batch_inv] into [inv]):
   x3 = l^2 - x1 - x2 and y3 = l (x1 - x3) - y1 go to (x3s.(i), y3s.(i)),
   which may be (x1.(i), y1.(i)) or (num.(i), den.(i)). A tangent has
   slope 3 x1^2 / (2 y1) with x2 = x1. *)
let slope_step n ~num ~den ~inv x1 y1 x2 ~x3s ~y3s =
  batch_inv n den inv;
  let l = Fe.make () and x3 = Fe.make () and d = Fe.make () in
  for i = 0 to n - 1 do
    Fe.mul l num.(i) inv.(i);
    Fe.sqr x3 l;
    Fe.sub x3 x3 x1.(i);
    Fe.sub x3 x3 x2.(i);
    Fe.sub d x1.(i) x3;
    Fe.mul d l d;
    Fe.sub y3s.(i) d y1.(i);
    Fe.set x3s.(i) x3
  done

(* (ax.(i), ay.(i)) := 2 (ax.(i), ay.(i)) for i < n, with [num], [den]
   and [inv] as scratch lanes. *)
let tangent_step n ax ay ~num ~den ~inv =
  for i = 0 to n - 1 do
    Fe.sqr den.(i) ax.(i);
    Fe.add num.(i) den.(i) den.(i);
    Fe.add num.(i) num.(i) den.(i);
    Fe.add den.(i) ay.(i) ay.(i)
  done;
  slope_step n ~num ~den ~inv ax ay ax ~x3s:ax ~y3s:ay

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
  let num = fe_array n and den = fe_array n in
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
  slope_step n ~num ~den ~inv:(fe_array n) ax ay bx ~x3s:num ~y3s:den;
  for i = 0 to n - 1 do
    (* b = O keeps a; else a = O takes b; else the sum, O if opposite *)
    let bi = Bool.to_int binf.(i) and ai = Bool.to_int ainf.(i) in
    Fe.select num.(i) ai bx.(i) num.(i);
    Fe.select den.(i) ai by.(i) den.(i);
    Fe.select ax.(i) bi ax.(i) num.(i);
    Fe.select ay.(i) bi ay.(i) den.(i);
    ainf.(i) <- (bi land ai) lor ((1 - bi) land (1 - ai) land opposite.(i)) = 1
  done

(* Chord additions (cx.(a), cy.(a)) += lane a's addend in place for
   a < n, every addend's x distinct from its lane's, sharing one
   inversion: [x a x2] writes the addend's x into x2 and [xy a x2 y2]
   its x and y. Only the prefix products are kept between the two
   passes, and the backward pass reads each addend again rather than
   keep a register per lane, which would outlive minor collections. The
   table build and the lockstep comb both run their rows through it. *)
let comb_row n cx cy prefix ~x ~xy =
  let run = Fe.make () and d = Fe.make () and l = Fe.make () in
  let x2 = Fe.make () and y2 = Fe.make () and x3 = Fe.make () in
  Fe.set_one run;
  for a = 0 to n - 1 do
    Fe.set prefix.(a) run;
    x a x2;
    Fe.sub d x2 cx.(a);
    Fe.mul run run d
  done;
  Fe.inv run run;
  for a = n - 1 downto 0 do
    let x1 = cx.(a) and y1 = cy.(a) in
    xy a x2 y2;
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

(* The tables of [pts], [rows] rows of width [width] each, built in one
   batch in affine coordinates: a lane per row of every finite point,
   and each step shares one inversion across all of them. The row bases
   2^(w*i) * B come from doubling and one batch normalization; then,
   with D = 2c * B_i (a tangent, starting at c = 1), entries c .. 2c-1
   are the chords entries 0 .. c-1 plus D. No denominator vanishes in a
   group of odd prime order: y = 0 would make a point 2-torsion, and a
   chord through (2j+1) B_i and 2c B_i with 2j+1 < 2c <= 2^(w-1) would
   need 2j+1 = +-2c mod n. With [endo], beta x goes beside each entry's
   x. *)
let build_tables ~width ~rows ~endo pts =
  (* 2^(wW) - 1: wW one bits, big-endian (wW < 512) *)
  let ones = width * rows in
  let offset =
    Sc.of_bytes_mod
      (String.make 1 (Char.chr ((1 lsl (ones mod 8)) - 1)) ^ String.make (ones / 8) '\xff')
  in
  let stride = if endo then 15 else 10 in
  let empty = { width; stride; entries = [||]; offset; bit = false } in
  let live =
    Array.of_list
      (List.filter (fun t -> not (is_infinity pts.(t))) (List.init (Array.length pts) Fun.id))
  in
  let nl = Array.length live * rows in
  let s = scratch () in
  let bases = Array.init nl (fun _ -> jac ()) in
  Array.iteri
    (fun t p ->
       let o = t * rows in
       load pts.(p) bases.(o);
       for i = 1 to rows - 1 do
         copy bases.(o + i) bases.(o + i - 1);
         for _ = 1 to width do dbl s bases.(o + i) bases.(o + i) done
       done)
    live;
  (* (dx, dy) starts at the row bases (finite: the order is odd) and
     becomes D *)
  let dx, dy = Array.split (normalize bases) in
  let h = 1 lsl (width - 1) in
  let entries = Array.init nl (fun _ -> Array.make (stride * h) 0) in
  Array.iteri (fun i row -> Fe.pack dx.(i) row 0; Fe.pack dy.(i) row 5) entries;
  (* The lanes grow with the chord steps, each made once per build. Made
     at the widest step's size up front, they would outlive minor
     collections and be promoted, while the last step alone needs half
     of them. *)
  let cx = ref [||] and cy = ref [||] and prefix = ref [||] in
  let lanes n =
    let grow r = r := Array.append !r (fe_array (n - Array.length !r)) in
    if Array.length !cx < n then List.iter grow [ cx; cy; prefix ]
  in
  lanes nl;
  (* the chord lanes are free while a tangent runs: its scratch *)
  let tangent () = tangent_step nl dx dy ~num:!cx ~den:!cy ~inv:!prefix in
  tangent ();
  let c = ref 1 in
  while !c < h do
    (* one chord step: lane a = i * c0 + j makes entry c0 + j of row i *)
    let c0 = !c in
    let n = nl * c0 in
    lanes n;
    let cx = !cx and cy = !cy and prefix = !prefix in
    for a = 0 to n - 1 do
      let row = entries.(a / c0) and at = stride * (a mod c0) in
      Fe.unpack row at cx.(a);
      Fe.unpack row (at + 5) cy.(a)
    done;
    comb_row n cx cy prefix
      ~x:(fun a x -> Fe.set x dx.(a / c0))
      ~xy:(fun a x y -> Fe.set x dx.(a / c0); Fe.set y dy.(a / c0));
    for a = 0 to n - 1 do
      let row = entries.(a / c0) and at = stride * (c0 + (a mod c0)) in
      Fe.pack cx.(a) row at;
      Fe.pack cy.(a) row (at + 5)
    done;
    if 2 * c0 < h then tangent ();
    c := 2 * c0
  done;
  if endo then
    Array.iter
      (fun row ->
         for j = 0 to h - 1 do
           Fe.unpack row (stride * j) s.ex;
           Fe.mul s.ex s.ex glv.e_beta;
           Fe.pack s.ex row ((stride * j) + 10)
         done)
      entries;
  let out = Array.make (Array.length pts) empty in
  Array.iteri (fun t p -> out.(p) <- { empty with entries = Array.sub entries (t * rows) rows }) live;
  out

let make_base_tables ~width pts =
  if width < 2 || width > 10 then invalid_arg "Curve.make_base_table: width";
  let rows = (order_bits + width - 1) / width in
  build_tables ~width ~rows ~endo:false pts

let make_base_table ~width pt = (make_base_tables ~width [| pt |]).(0)

let base_table_rows (table : base_table) =
  Array.map
    (fun row ->
       Array.init (Array.length row / table.stride) (fun j ->
           let x = Fe.make () and y = Fe.make () in
           Fe.unpack row (table.stride * j) x;
           Fe.unpack row ((table.stride * j) + 5) y;
           affine_point x y))
    table.entries

(* The recoding d of [k] (see above), which holds the table's digits
   b_i: b_i is bits w*i .. w*i + w - 1 of d. Halving mod n is a product
   with 2^-1 = (n + 1) / 2, the same for an odd or even sum. A lane of a
   lockstep group keeps d rather than an array of its digits. *)
let comb_digits (table : base_table) k = Sc.mul (Sc.add k table.offset) half

(* Digit b_i: w <= 10 bits at offset w*i. *)
let comb_digit (table : base_table) d i = Sc.bits d (table.width * i) table.width

(* Row i's entry for recoded digit b is e * 2^(w*i) * B with
   e = 2b - (2^w - 1): column j of the row, where |e| = 2j + 1, and its
   y negated when the top bit of b is clear. [comb_x] unpacks the x into
   [x]; [comb_y] unpacks the y into [y] and negates it or not by a select,
   with [tmp] as scratch. *)
let comb_column (table : base_table) b =
  let h = 1 lsl (table.width - 1) in
  let s = b lsr (table.width - 1) in
  b land (h - 1) lxor ((s - 1) land (h - 1))

let comb_x (table : base_table) i b x =
  Fe.unpack table.entries.(i) (table.stride * comb_column table b) x

let comb_y (table : base_table) i b y tmp =
  Fe.unpack table.entries.(i) ((table.stride * comb_column table b) + 5) y;
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

(* --- lockstep batch of fixed-base multiplications ---------------------- *)

type comb_job = (base_table * Sc.t) list

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
         (* each lane's digit of the current row, decoded once per row:
            its entry's offset and its sign (1 for positive) *)
         let row = ref 0 and at = Array.make na 0 and sign = Array.make na 0 in
         let decode i =
           row := i;
           for a = 0 to na - 1 do
             let table = tables.(a) in
             let b = comb_digit table digits.(a) i in
             at.(a) <- table.stride * comb_column table b;
             sign.(a) <- b lsr (table.width - 1)
           done
         in
         let x a ex = Fe.unpack tables.(a).entries.(!row) at.(a) ex in
         let xy a ex ey =
           let entries = tables.(a).entries.(!row) in
           Fe.unpack entries at.(a) ex;
           Fe.unpack entries (at.(a) + 5) ey;
           Fe.neg tmp ey;
           Fe.select ey sign.(a) ey tmp
         in
         let fresh () =
           let xs = fe_array na and ys = fe_array na in
           Array.iteri (fun a ex -> xy a ex ys.(a)) xs;
           (xs, ys)
         in
         decode 0;
         let cx, cy = fresh () in
         let prefix = fe_array na in
         for i = 1 to rows - 2 do
           decode i;
           comb_row na cx cy prefix ~x ~xy
         done;
         let ainf = Array.make na false in
         if rows >= 2 then begin
           decode (rows - 1);
           let ex, ey = fresh () in
           complete_step cx cy ainf ex ey (Array.make na false)
         end;
         Array.iteri (fun a l -> rx.(l) <- cx.(a); ry.(l) <- cy.(a); rinf.(l) <- ainf.(a)) idx
       end
       else Array.iter (fun l -> rx.(l) <- Fe.make (); ry.(l) <- Fe.make ()) idx)
    (List.sort_uniq Int.compare (List.map rows_of lanes));
  Array.iteri
    (fun l (_, (table : base_table), k) ->
       if table.bit then begin
         if not (Sc.is_zero k || Sc.equal k Sc.one) then
           invalid_arg "Curve.mul_base_batch: bit term above 1";
         let x = Fe.make () and y = Fe.make () in
         (* entry 0 of row 0 is 1 * B *)
         if Array.length table.entries > 0 then begin
           Fe.unpack table.entries.(0) 0 x;
           Fe.unpack table.entries.(0) 5 y
         end;
         rx.(l) <- x;
         ry.(l) <- y;
         rinf.(l) <- Array.length table.entries = 0 || Sc.is_zero k
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

(* GLV decomposition k = k1 + k2*lambda (mod n) from projections c1 ~
   b2*k/n and c2 ~ b1*k/n onto the short basis: k2 = c1*b1 - c2*b2 and
   k1 = k - k2*lambda, both mod n, whose integer values
   k - c1*a1 - c2*a2 and c1*b1 - c2*b2 are short and signed (the basis
   congruences a1 = b1*lambda, a2 = -b2*lambda make the two forms of k1
   agree). A half below n/2 is positive; above, its magnitude is n
   minus it. The identity holds for *any* c1, c2 once the
   initialization check has passed the basis congruences: the rounding
   only controls how short the halves are, never soundness. The split
   rounds to nearest, as in libsecp256k1: each c is round(k*g / 2^384)
   with g = round(2^384 * b / n) fixed. The tables and the MSM both take
   it. *)
let endo_split k =
  let c1 = Sc.mul_shift k glv.e_g1 384 and c2 = Sc.mul_shift k glv.e_g2 384 in
  let k2 = Sc.sub (Sc.mul c1 glv.e_b1) (Sc.mul c2 glv.e_b2) in
  let k1 = Sc.sub k (Sc.mul k2 glv.e_lambda) in
  let signed h = if Sc.bits h 255 1 = 0 then (false, h) else (true, Sc.neg h) in
  (signed k1, signed k2)

(* How long a GLV half of a scalar k < n can be: 128 bits. g is within
   1/2 of 2^384 b / n and k < 2^256, so c1 and c2 are within
   1/2 + 2^-129 of b2 k / n and b1 k / n. As a1 b2 + a2 b1 = n, the
   exact projection cancels, leaving k1 = d1 a1 + d2 a2 and
   k2 = d2 b2 - d1 b1 for those rounding errors d1 and d2: |k1| is
   below (a1 + a2) / 2 + 1 < 2^127.4 and |k2| below
   (b1 + b2) / 2 + 1 < 2^127.2. *)
let endo_bits = 128

(* Width 4: 32 rows of 8 entries cover a half. *)
let make_endo_tables pts = build_tables ~width:4 ~rows:(endo_bits / 4) ~endo:true pts

(* u * B + k1 * P + k2 * phi(P), B the fixed base behind [base] and P
   the one behind [table], all in one accumulator by mixed adds: u walks
   [base]'s rows, then both GLV halves walk [table]'s, reading x for the
   first and beta x for the second, the y flipped for a negative half.
   The scalars are public, so a lookup's sign is a branch, not the
   select [comb_rows] makes for a secret. An even half m walks m - 1
   and adds its base once more; a zero half adds nothing. A half longer
   than the rows cover raises; no half of [endo_split] is. *)
let mul2_endo (base : base_table) u (table : endo_table) ((n1, m1), (n2, m2)) =
  let cover = table.width * Array.length table.entries in
  if Sc.bit_length m1 > cover || Sc.bit_length m2 > cover then
    invalid_arg "Curve.mul2_endo: a half is longer than the table's rows"
  else begin
    let s = scratch () and acc = jac () in
    let add ~xo ~neg row e =
      Fe.unpack row (e + xo) s.ex;
      Fe.unpack row (e + 5) s.ey;
      if neg then Fe.neg s.ey s.ey;
      madd s acc acc s.ex s.ey
    in
    (* every row of [t] for scalar k, its lookups' y flipped by [neg] *)
    let rows ~xo ~neg (t : base_table) k =
      let digits = comb_digits t k in
      Array.iteri
        (fun i row ->
           let b = comb_digit t digits i in
           let negative = b lsr (t.width - 1) = 0 in
           add ~xo ~neg:(negative <> neg) row (t.stride * comb_column t b))
        t.entries
    in
    if Array.length base.entries > 0 then rows ~xo:0 ~neg:false base u;
    let walk ~xo neg m =
      if not (Sc.is_zero m) then
        if Sc.bits m 0 1 = 1 then rows ~xo ~neg table m
        else begin
          add ~xo ~neg table.entries.(0) 0;
          rows ~xo ~neg table (Sc.sub m Sc.one)
        end
    in
    walk ~xo:0 n1 m1;
    walk ~xo:10 n2 m2;
    store acc
  end

(* Packed Jacobian slots in the arena: X, Y and Z at o, o + 5 and
   o + 10, and room at o + 15 for a prefix product. *)
let slot = 20

let pack_jac fe o r =
  Fe.pack r.x fe o;
  Fe.pack r.y fe (o + 5);
  Fe.pack r.z fe (o + 10)

let unpack_jac fe o r =
  Fe.unpack fe o r.x;
  Fe.unpack fe (o + 5) r.y;
  Fe.unpack fe (o + 10) r.z

(* Normalize [count] finite slots in place with one field inversion
   (Montgomery's trick, each slot's prefix product kept in its last five
   words): the slot at [at i] then holds x at [at i] and y 5 words on. *)
let normalize_slots s fe ~count at =
  let run = s.t0 and z = s.t1 and zi = s.t2 and zz = s.t3 and v = s.t4 in
  Fe.set_one run;
  for i = 0 to count - 1 do
    let o = at i in
    Fe.pack run fe (o + 15);
    Fe.unpack fe (o + 10) z;
    Fe.mul run run z
  done;
  if count > 0 then Fe.inv run run;
  for i = count - 1 downto 0 do
    let o = at i in
    Fe.unpack fe (o + 15) zi;
    Fe.mul zi zi run;
    Fe.unpack fe (o + 10) z;
    Fe.mul run run z;
    Fe.sqr zz zi;
    Fe.unpack fe o v;
    Fe.mul v v zz;
    Fe.pack v fe o;
    Fe.mul zz zz zi;
    Fe.unpack fe (o + 5) v;
    Fe.mul v v zz;
    Fe.pack v fe (o + 5)
  done

let term_scalar a (pairs : (Sc.t * point) array) t = fst pairs.(a.ix.(t))

(* A Strauss digit string has at most 140 bits: a short scalar by the
   table-size rule below, a GLV half of [endo_split] by its bound (128
   bits, [endo_bits]). Its wNAF fits a row of [strauss_cols]. *)
let strauss_bits = 140
let strauss_cols = 148

let digit_rows a rows =
  if Bytes.length a.dg < rows * strauss_cols then a.dg <- Bytes.create (rows * strauss_cols);
  a.dg

(* Joint Strauss for small-to-medium batches: per-point wNAF digit
   strings share one doubling chain, so n points cost ~256 doubles
   total plus sparse adds each, instead of n*(256 doubles + adds) run
   serially.

   Each term has a table of odd multiples P, 3P, 5P, ... in the arena,
   affine with the phi-image's beta x beside x: the points and their
   doubles (in each table's first two slots) share one inversion, so
   every entry after the first is a mixed add of 2P, and all the entries
   share a second, so every digit add is a mixed add too. A digit
   string walks one table, negating the entries' y for a negative digit.
   By the GLV endomorphism, a full-width scalar splits into two ~128-bit
   strings — the second walking the phi-images of the first's table —
   which halves the length of the shared doubling chain; a negative half
   flips its digits' signs. Scalars already short enough to be single
   strings (the batch verifiers' 128-bit random weights) get 4-entry
   width-4 tables instead of 8-entry width-5 ones: with only one string
   amortizing the table, the smaller build wins.

   Term t's table starts at fe.(ix.(n + t)). The walks' digits are rows
   of the arena's byte matrix, aligned at the least significant end, and
   the doubling loop reads them in place; walk r's integers are
   ix.(2n + 4r ..): the offsets of its table's x (or beta x) and y, its
   sign flip and its length. *)
let msm_strauss a n pairs =
  let s = a.s in
  let size t = if Sc.bit_length (term_scalar a pairs t) <= strauss_bits then 4 else 8 in
  let entries = ref 0 and split = ref 0 in
  for t = 0 to n - 1 do
    entries := !entries + size t;
    if size t = 8 then incr split
  done;
  let fe = fe_words a (slot * !entries) and ix = ix_words a ((2 * n) + (4 * (n + !split))) in
  let dg = digit_rows a (n + !split) in
  let tab t = ix.(n + t) in
  (* P and 2P in the first two slots of the table, one inversion *)
  let r = a.r1 in
  let o = ref 0 in
  for t = 0 to n - 1 do
    ix.(n + t) <- !o;
    load (snd pairs.(ix.(t))) r;
    pack_jac fe !o r;
    dbl s r r;
    pack_jac fe (!o + slot) r;
    o := !o + (slot * size t)
  done;
  normalize_slots s fe ~count:(2 * n) (fun i -> tab (i / 2) + (slot * (i land 1)));
  for t = 0 to n - 1 do
    let o = tab t in
    Fe.unpack fe (o + slot) s.ex;
    Fe.unpack fe (o + slot + 5) s.ey;
    Fe.unpack fe o r.x;
    Fe.unpack fe (o + 5) r.y;
    Fe.set_one r.z;
    for j = 0 to size t - 1 do
      if j > 0 then madd s r r s.ex s.ey;
      pack_jac fe (o + (slot * j)) r
    done
  done;
  normalize_slots s fe ~count:!entries (fun i -> slot * i);
  let walks = ref 0 and maxlen = ref 0 in
  let walk w tb ~phi (negate, m) =
    if not (Sc.is_zero m) then begin
      if Sc.bit_length m > strauss_bits then invalid_arg "Curve.msm: digit string too long";
      let len = wnaf_into w m dg (!walks * strauss_cols) in
      let at = (2 * n) + (4 * !walks) in
      ix.(at) <- (if phi then tb + 10 else tb);
      ix.(at + 1) <- tb + 5;
      ix.(at + 2) <- Bool.to_int negate;
      ix.(at + 3) <- len;
      maxlen := max !maxlen len;
      incr walks
    end
  in
  for t = 0 to n - 1 do
    let k = term_scalar a pairs t in
    if size t = 4 then walk 4 (tab t) ~phi:false (false, k)
    else begin
      (* beta x into the spent Z words of the table's entries *)
      for j = 0 to 7 do
        let e = tab t + (slot * j) in
        Fe.unpack fe e s.ex;
        Fe.mul s.ex s.ex glv.e_beta;
        Fe.pack s.ex fe (e + 10)
      done;
      let k1, k2 = endo_split k in
      walk 5 (tab t) ~phi:false k1;
      walk 5 (tab t) ~phi:true k2
    end
  done;
  let acc = a.acc in
  set_identity acc;
  for pos = !maxlen - 1 downto 0 do
    dbl s acc acc;
    for w = !walks - 1 downto 0 do
      let at = (2 * n) + (4 * w) in
      if pos < ix.(at + 3) then begin
        let d = Bytes.get_int8 dg ((w * strauss_cols) + pos) in
        if d <> 0 then begin
          let e = slot * (abs d / 2) in
          Fe.unpack fe (ix.(at) + e) s.ex;
          Fe.unpack fe (ix.(at + 1) + e) s.ey;
          if d < 0 <> (ix.(at + 2) = 1) then Fe.neg s.ey s.ey;
          madd s acc acc s.ex s.ey
        end
      end
    done
  done;
  acc

(* Bucketed Pippenger for large batches: per c-bit window, points
   accumulate into their digit's bucket (mixed adds against the
   batch-normalized inputs) and the window sum comes out of a running
   suffix sum; cost is ~windows * (n + 2^(c+1)) adds + 256 doubles,
   sublinear per point once n dominates the bucket count. The inputs
   and the buckets (packed, after them) live in the arena. *)
let msm_pippenger a ~window:c n pairs =
  let s = a.s in
  let nbuckets = (1 lsl c) - 1 in
  let bk = slot * n in
  let fe = fe_words a (bk + (15 * (nbuckets + 1))) in
  let ix = a.ix in
  for t = 0 to n - 1 do
    load (snd pairs.(ix.(t))) a.r1;
    pack_jac fe (slot * t) a.r1
  done;
  normalize_slots s fe ~count:n (fun t -> slot * t);
  let windows = (order_bits + c - 1) / c in
  let acc = a.acc and b = a.r1 and suffix = a.r2 and wsum = a.r3 in
  set_identity acc;
  for w = windows - 1 downto 0 do
    if w < windows - 1 then for _ = 1 to c do dbl s acc acc done;
    Array.fill fe bk (15 * (nbuckets + 1)) 0;
    for t = 0 to n - 1 do
      let d = Sc.bits (term_scalar a pairs t) (w * c) c in
      if d <> 0 then begin
        let o = bk + (15 * d) in
        unpack_jac fe o b;
        Fe.unpack fe (slot * t) s.ex;
        Fe.unpack fe ((slot * t) + 5) s.ey;
        madd s b b s.ex s.ey;
        pack_jac fe o b
      end
    done;
    (* sum_d d * bucket(d) as a running suffix sum: the suffix sum after
       step d is bucket(d) + ... + bucket(max), and adding it once per
       step contributes each bucket exactly d times *)
    set_identity suffix;
    set_identity wsum;
    for d = nbuckets downto 1 do
      unpack_jac fe (bk + (15 * d)) b;
      add_j s suffix suffix b;
      add_j s wsum wsum suffix
    done;
    add_j s acc acc wsum
  done;
  acc

(* Multi-scalar multiplication sum_i k_i * P_i. Strategy is chosen from
   the (post-filtering) batch size: wNAF Strauss while the shared
   doubling chain dominates, bucketed Pippenger once bucket reuse wins;
   [?window] forces the Pippenger path with the given window width
   (differential tests use this to cover both paths at small n). Both
   work in the domain's arena. Variable time — public scalars and
   points only (curve.mli). *)
let msm ?window (pairs : (Sc.t * point) array) =
  let a = arena () in
  let s = a.s and tiny = a.tiny in
  set_identity tiny;
  (* the live terms' pair indices; the kernels' integers follow them *)
  let ix = ix_words a (Array.length pairs) in
  let n = ref 0 in
  for i = 0 to Array.length pairs - 1 do
    let k, p = pairs.(i) in
    if Sc.is_zero k || is_infinity p then ()
    else if Sc.bit_length k <= 2 then begin
      (* Scalars of one or two bits (notably the pinned weight 1 some
         batch verifiers use) are cheaper as a couple of direct
         additions than as a table-and-digit-string entry. *)
      load p a.r1;
      if Sc.bits k 0 2 <> 1 then begin
        dbl s a.r2 a.r1;
        add_j s tiny tiny a.r2
      end;
      if Sc.bits k 0 2 <> 2 then add_j s tiny tiny a.r1
    end
    else begin
      ix.(!n) <- i;
      incr n
    end
  done;
  let main =
    match window, !n with
    | None, 0 -> set_identity a.acc; a.acc
    | None, 1 -> let k, p = pairs.(ix.(0)) in mul_vartime_j s k p
    | None, n when n <= 256 -> msm_strauss a n pairs
    | _, n ->
      let c =
        match window with
        | Some c ->
          if c < 1 || c > 16 then invalid_arg "Curve.msm: window out of range";
          c
        | None ->
          let rec ilog2 v = if v <= 1 then 0 else 1 + ilog2 (v lsr 1) in
          min 12 (max 4 (ilog2 n - 2))
      in
      msm_pippenger a ~window:c n pairs
  in
  add_j s main main tiny;
  store main

(* Point encoding: 0x00 for infinity; otherwise 0x04 || X || Y
   (uncompressed, fixed width). *)
let encode_affine = function
  | None -> "\x00"
  | Some (x, y) ->
    let b = Bytes.create (1 + (2 * byte_len)) in
    Bytes.set b 0 '\x04';
    Bytes.blit_string (Fe.to_bytes x) 0 b 1 byte_len;
    Bytes.blit_string (Fe.to_bytes y) 0 b (1 + byte_len) byte_len;
    Bytes.unsafe_to_string b

let encode pt = encode_affine (to_affine pt)

(* A coordinate: 32 bytes below p, which [Fe.of_bytes] returns
   unchanged. *)
let coordinate s off =
  let b = String.sub s off byte_len in
  let x = Fe.of_bytes b in
  if String.equal (Fe.to_bytes x) b then Some x else None

let decode s =
  if s = "\x00" then Some infinity
  else if String.length s = 1 + 2 * byte_len && s.[0] = '\x04' then
    match coordinate s 1, coordinate s (1 + byte_len) with
    | Some x, Some y when on_curve (x, y) -> Some (affine_point x y)
    | _ -> None
  else None

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
    (* a fully reduced element's parity is its low limb's *)
    let prefix = if y.(0) land 1 = 1 then "\x03" else "\x02" in
    prefix ^ Fe.to_bytes x

let decode_compressed s =
  if s = "\x00" then Some infinity
  else if String.length s = 1 + byte_len && (s.[0] = '\x02' || s.[0] = '\x03') then
    match coordinate s 1 with
    | None -> None
    | Some x ->
      match lift_x x with
      | None -> None
      | Some y ->
        if y.(0) land 1 <> Bool.to_int (s.[0] = '\x03') then Fe.neg y y;
        Some (affine_point x y)
  else None

(* Hash-to-point by try-and-increment on SHA-256 outputs: used to derive
   a second generator H with unknown discrete log w.r.t. G (needed by
   the lifted-ElGamal commitment key). *)
let hash_to_point label =
  let rec try_counter i =
    if i > 1000 then failwith "Curve.hash_to_point: no point found";
    let h = Dd_crypto.Sha256.digest_list [ label; string_of_int i ] in
    let x = Fe.of_bytes h in
    match lift_x x with
    | Some y -> affine_point x y
    | None -> try_counter (i + 1)
  in
  try_counter 0

(* Hash arbitrary bytes to a scalar mod the group order. Parts are
   length-prefixed so that part boundaries are unambiguous (hashing
   ["ab"] differs from ["a"; "b"]): each part follows its length as ten
   zero-padded decimal digits, all framed in one buffer. *)
let hash_to_scalar parts =
  let buf = Bytes.create (List.fold_left (fun n p -> n + 10 + String.length p) 0 parts) in
  let frame o p =
    let len = String.length p in
    if len >= 10_000_000_000 then invalid_arg "Curve.hash_to_scalar: part too long";
    let v = ref len in
    for i = 9 downto 0 do
      Bytes.unsafe_set buf (o + i) (Char.unsafe_chr (Char.code '0' + (!v mod 10)));
      v := !v / 10
    done;
    Bytes.blit_string p 0 buf (o + 10) len;
    o + 10 + len
  in
  ignore (List.fold_left frame 0 parts);
  Sc.of_bytes_mod (Dd_crypto.Sha256.digest (Bytes.unsafe_to_string buf))
