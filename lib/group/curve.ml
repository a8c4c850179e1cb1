(* Short-Weierstrass elliptic curve group, y^2 = x^3 + a x + b over F_p,
   with Jacobian-coordinate arithmetic (X/Z^2, Y/Z^3). This is the group
   underlying the paper's lifted-ElGamal option-encoding commitments,
   Chaum-Pedersen proofs, and Schnorr signatures (replacing MIRACL). *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular

type params = {
  p : Nat.t;            (* field prime *)
  a : Nat.t;
  b : Nat.t;
  gx : Nat.t;
  gy : Nat.t;
  order : Nat.t;        (* prime order n of the generator *)
  name : string;
}

(* GLV endomorphism data for j-invariant-0 curves (secp256k1): with
   beta a primitive cube root of unity mod p, (x, y) -> (beta*x, y) is
   multiplication by the scalar lambda, and (a1, -b1), (a2, b2) is a
   short lattice basis for splitting a 256-bit scalar into two signed
   ~128-bit halves. Used only by the vartime msm path. *)
type endo = {
  e_lambda : Nat.t;     (* phi(P) = lambda * P *)
  e_beta : Nat.t;       (* phi(x, y) = (beta * x, y) *)
  e_a1 : Nat.t;
  e_b1 : Nat.t;         (* magnitude; the basis vector is (a1, -b1) *)
  e_a2 : Nat.t;
  e_b2 : Nat.t;
}

type point =
  | Infinity
  | Jacobian of Nat.t * Nat.t * Nat.t  (* X, Y, Z with Z <> 0 *)

(* Wide affine odd-multiple tables for a fixed point (and its phi-image
   on endo curves), precomputed once and reused across msm calls. The
   in-loop msm tables are width 5 because their build cost is paid per
   call; a precomputed table affords width [precomp_width], cutting the
   point's digit adds by a third and skipping its per-call table build
   and normalization entirely. Used for the generator (every batch
   verification folds its s_i*G legs into one generator term) and for
   long-lived verification keys (a VC node checks every UCERT against
   the same signer clique). *)
type precomp = {
  pre_pt : point;       (* the base point, affine-normalized *)
  ptp : point array;    (* P, 3P, ..., (2^(w-1)-1)P, affine *)
  ptn : point array;    (* negations *)
  pphi : point array;   (* phi-images (x scaled by beta); [||] if no endo *)
  pnphi : point array;
}

type t = {
  params : params;
  fp : Modular.ctx;     (* arithmetic mod p *)
  fn : Modular.ctx;     (* arithmetic mod order *)
  byte_len : int;       (* field element encoding length *)
  sqrt_e : Nat.t;       (* (p+1)/4, cached for field_sqrt (p = 3 mod 4) *)
  endo : endo option;   (* GLV split for the msm path, where applicable *)
  gen_tables : precomp option Atomic.t;
  (* generator table cache, published once via compare-and-set: a race
     may compute it twice, but every domain observes a single value *)
}

(* secp256k1: y^2 = x^3 + 7. *)
let secp256k1 = {
  p = Nat.of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
  a = Nat.zero;
  b = Nat.of_int 7;
  gx = Nat.of_hex "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
  gy = Nat.of_hex "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";
  order = Nat.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141";
  name = "secp256k1";
}

(* NIST P-256 (a = -3 mod p): exercises the general-a arithmetic. *)
let nist_p256 =
  let p = Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" in
  {
    p;
    a = Nat.sub p (Nat.of_int 3);
    b = Nat.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
    gx = Nat.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
    gy = Nat.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";
    order = Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
    name = "nist-p256";
  }

(* [create] lives below [mul_vartime]: validating the endomorphism
   constants needs a scalar multiplication. *)

let field t = t.fp
let scalar_field t = t.fn
let order t = t.params.order
let byte_len t = t.byte_len

let infinity = Infinity

let generator t = Jacobian (t.params.gx, t.params.gy, Nat.one)

let is_infinity = function Infinity -> true | Jacobian _ -> false

let to_affine t = function
  | Infinity -> None
  | Jacobian (x, y, z) when Nat.equal z Nat.one ->
    (* already affine: skip the Fermat inversion. Decoded points and
       precomputed tables all sit at z = 1, so the serving hot path
       (tag re-encoding, cache keys) hits this arm constantly. *)
    Some (Modular.reduce t.fp x, Modular.reduce t.fp y)
  | Jacobian (x, y, z) ->
    let fp = t.fp in
    let zi = Modular.inv fp z in
    let zi2 = Modular.sqr fp zi in
    Some (Modular.mul fp x zi2, Modular.mul fp y (Modular.mul fp zi2 zi))

(* Montgomery's trick: invert every element of [xs] (all nonzero) with
   one modular inversion. prefix.(i) is the product of the elements
   before index i; the backward pass peels per-element inverses off the
   inverted total, ~3 field mults per element. *)
let batch_inv fp xs =
  let n = Array.length xs in
  let prefix = Array.make n Nat.one in
  let running = ref Nat.one in
  for i = 0 to n - 1 do
    prefix.(i) <- !running;
    running := Modular.mul fp !running xs.(i)
  done;
  let inv_run = ref (if n = 0 then Nat.one else Modular.inv fp !running) in
  let out = Array.make n Nat.one in
  for i = n - 1 downto 0 do
    out.(i) <- Modular.mul fp !inv_run prefix.(i);
    inv_run := Modular.mul fp !inv_run xs.(i)
  done;
  out

(* Batch normalization: only finite points off Z = 1 need an inverse,
   and they share one inversion through [batch_inv]. *)
let to_affine_batch t pts =
  let fp = t.fp in
  let pending_z = function
    | Jacobian (_, _, z) when not (Nat.equal z Nat.one) -> Some z
    | Jacobian _ | Infinity -> None
  in
  let zis = batch_inv fp (Array.of_list (List.filter_map pending_z (Array.to_list pts))) in
  let out = Array.make (Array.length pts) None in
  let k = ref 0 in
  for i = 0 to Array.length pts - 1 do
    match pts.(i), pending_z pts.(i) with
    | Infinity, _ -> ()
    | Jacobian (x, y, _), None -> out.(i) <- Some (x, y)
    | Jacobian (x, y, _), Some _ ->
      let zi = zis.(!k) in
      incr k;
      let zi2 = Modular.sqr fp zi in
      out.(i) <- Some (Modular.mul fp x zi2, Modular.mul fp y (Modular.mul fp zi2 zi))
  done;
  out

let of_affine _t (x, y) = Jacobian (x, y, Nat.one)

let on_curve t (x, y) =
  let fp = t.fp in
  let lhs = Modular.sqr fp y in
  let rhs =
    Modular.add fp
      (Modular.add fp (Modular.mul fp (Modular.sqr fp x) x) (Modular.mul fp t.params.a x))
      t.params.b
  in
  Nat.equal lhs rhs

let double t pt =
  match pt with
  | Infinity -> Infinity
  | Jacobian (x1, y1, z1) ->
    if Nat.is_zero y1 then Infinity
    else begin
      let fp = t.fp in
      (* dbl-2007-bl, general a *)
      let xx = Modular.sqr fp x1 in
      let yy = Modular.sqr fp y1 in
      let yyyy = Modular.sqr fp yy in
      let zz = Modular.sqr fp z1 in
      let s =
        let t0 = Modular.sqr fp (Modular.add fp x1 yy) in
        Modular.double fp (Modular.sub fp t0 (Modular.add fp xx yyyy))
      in
      let m =
        (* a is a public curve constant, so branching on it leaks
           nothing; a = 0 (secp256k1) skips a square and a multiply *)
        if Nat.is_zero t.params.a then
          Modular.add fp (Modular.double fp xx) xx
        else
          Modular.add fp
            (Modular.add fp (Modular.double fp xx) xx)
            (Modular.mul fp t.params.a (Modular.sqr fp zz))
      in
      let x3 = Modular.sub fp (Modular.sqr fp m) (Modular.double fp s) in
      let y3 =
        Modular.sub fp
          (Modular.mul fp m (Modular.sub fp s x3))
          (Modular.double fp (Modular.double fp (Modular.double fp yyyy)))
      in
      let z3 =
        Modular.sub fp
          (Modular.sqr fp (Modular.add fp y1 z1))
          (Modular.add fp yy zz)
      in
      if Nat.is_zero z3 then Infinity else Jacobian (x3, y3, z3)
    end

let add t p q =
  match p, q with
  | Infinity, r | r, Infinity -> r
  | Jacobian (x1, y1, z1), Jacobian (x2, y2, z2) ->
    let fp = t.fp in
    (* add-2007-bl *)
    let z1z1 = Modular.sqr fp z1 in
    let z2z2 = Modular.sqr fp z2 in
    let u1 = Modular.mul fp x1 z2z2 in
    let u2 = Modular.mul fp x2 z1z1 in
    let s1 = Modular.mul fp y1 (Modular.mul fp z2 z2z2) in
    let s2 = Modular.mul fp y2 (Modular.mul fp z1 z1z1) in
    if Nat.equal u1 u2 then begin
      if Nat.equal s1 s2 then double t p else Infinity
    end else begin
      let h = Modular.sub fp u2 u1 in
      let i = Modular.sqr fp (Modular.double fp h) in
      let j = Modular.mul fp h i in
      let r = Modular.double fp (Modular.sub fp s2 s1) in
      let v = Modular.mul fp u1 i in
      let x3 = Modular.sub fp (Modular.sub fp (Modular.sqr fp r) j) (Modular.double fp v) in
      let y3 =
        Modular.sub fp
          (Modular.mul fp r (Modular.sub fp v x3))
          (Modular.double fp (Modular.mul fp s1 j))
      in
      let z3 =
        Modular.mul fp h
          (Modular.sub fp (Modular.sqr fp (Modular.add fp z1 z2)) (Modular.add fp z1z1 z2z2))
      in
      if Nat.is_zero z3 then Infinity else Jacobian (x3, y3, z3)
    end

let neg t = function
  | Infinity -> Infinity
  | Jacobian (x, y, z) -> Jacobian (x, Modular.neg t.fp y, z)

let sub t p q = add t p (neg t q)

(* 4-bit window digit w of scalar k (little-endian window index). *)
let window4 k w =
  (if Nat.testbit k (4*w) then 1 else 0)
  lor (if Nat.testbit k (4*w + 1) then 2 else 0)
  lor (if Nat.testbit k (4*w + 2) then 4 else 0)
  lor (if Nat.testbit k (4*w + 3) then 8 else 0)

(* Scalar multiplication for secret scalars: fixed 4-bit windows,
   MSB-first. The window count is fixed by the order's bit length and
   every window performs one table lookup and one add (the d = 0 slot
   holds Infinity), so the sequence of group operations does not depend
   on the scalar's value — see the timing contract in curve.mli. *)
let mul t k pt =
  let k = Modular.reduce t.fn k in
  let tbl = Array.make 16 Infinity in
  tbl.(1) <- pt;
  for d = 2 to 15 do tbl.(d) <- add t tbl.(d - 1) pt done;
  let windows = (Nat.bit_length t.params.order + 3) / 4 in
  let acc = ref Infinity in
  for w = windows - 1 downto 0 do
    acc := double t (double t (double t (double t !acc)));
    acc := add t !acc tbl.(window4 k w)
  done;
  !acc

let mul_int t k pt =
  if k < 0 then invalid_arg "Curve.mul_int: negative scalar";
  mul t (Nat.of_int k) pt

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

let wnaf5 k = wnaf 5 k

(* Odd multiples 1P, 3P, ..., 15P and their negations, indexed by d/2
   for odd digit d. *)
let odd_multiples t pt =
  let tbl = Array.make 8 pt in
  let p2 = double t pt in
  for i = 1 to 7 do tbl.(i) <- add t tbl.(i - 1) p2 done;
  (tbl, Array.map (neg t) tbl)

(* Variable-time scalar multiplication by width-5 wNAF: ~51 adds for a
   256-bit scalar instead of the ~64 a 4-bit window needs, and zero
   digits cost only a double. Public inputs only — see curve.mli. *)
let mul_vartime t k pt =
  let k = Modular.reduce t.fn k in
  if Nat.is_zero k || is_infinity pt then Infinity
  else begin
    let tbl, ntbl = odd_multiples t pt in
    let acc = ref Infinity in
    List.iter
      (fun d ->
        acc := double t !acc;
        if d > 0 then acc := add t !acc tbl.(d / 2)
        else if d < 0 then acc := add t !acc ntbl.((-d) / 2))
      (wnaf5 k);
    !acc
  end

(* Candidate GLV constants for secp256k1: lambda, beta and the short
   lattice basis, as in libsecp256k1. They are verified algebraically
   by [endo_valid] before use, so a bad constant degrades [msm] to the
   generic path instead of producing wrong results. *)
let secp256k1_endo = {
  e_lambda = Nat.of_hex "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72";
  e_beta = Nat.of_hex "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee";
  e_a1 = Nat.of_hex "3086d221a7d46bcde86c90e49284eb15";
  e_b1 = Nat.of_hex "e4437ed6010e88286f547fa90abfe4c3";
  e_a2 = Nat.of_hex "114ca50f7a8e2f3f657c1108d9d44cfd8";
  e_b2 = Nat.of_hex "3086d221a7d46bcde86c90e49284eb15";
}

(* Accept an endomorphism only if it checks out on this curve: the
   curve must have a = 0 (j-invariant 0), beta must be a nontrivial
   cube root of unity mod p (so (x, y) -> (beta*x, y) maps the curve
   to itself), (beta*gx, gy) must equal lambda*G (pinning the map to
   multiplication by lambda rather than lambda^2), and the lattice
   basis must satisfy a1 = b1*lambda and a2 = -b2*lambda (mod n). *)
let endo_valid t e =
  let fp = t.fp and fn = t.fn in
  Nat.is_zero t.params.a
  && not (Nat.equal e.e_beta Nat.one)
  && Nat.equal (Modular.mul fp e.e_beta (Modular.sqr fp e.e_beta)) Nat.one
  && Nat.equal (Modular.mul fn e.e_b1 e.e_lambda) (Modular.reduce fn e.e_a1)
  && Nat.is_zero
       (Modular.add fn (Modular.reduce fn e.e_a2) (Modular.mul fn e.e_b2 e.e_lambda))
  && (match to_affine t (mul_vartime t e.e_lambda (generator t)) with
      | Some (x, y) ->
        Nat.equal x (Modular.mul fp e.e_beta t.params.gx) && Nat.equal y t.params.gy
      | None -> false)

let create ?(fast = true) params =
  let t = {
    params;
    fp = Modular.create ~fast params.p;
    fn = Modular.create ~fast params.order;
    byte_len = (Nat.bit_length params.p + 7) / 8;
    sqrt_e = Nat.shift_right (Nat.add params.p Nat.one) 2;
    endo = None;
    gen_tables = Atomic.make None;
  } in
  if String.equal params.name "secp256k1" && endo_valid t secp256k1_endo
  then { t with endo = Some secp256k1_endo }
  else t

(* Mixed addition p + q where q is affine-normalized (Z = 1), by
   madd-2007-bl: drops the Z2 arithmetic of the general formula (~30%
   fewer field mults per add). Callers must only pass a [q] built by
   [of_affine] (or Infinity); both are exactly what the comb tables and
   [normalize_batch] below hold. *)
let add_mixed t p q =
  match p, q with
  | Infinity, r | r, Infinity -> r
  | Jacobian (x1, y1, z1), Jacobian (x2, y2, _z2) ->
    let fp = t.fp in
    let z1z1 = Modular.sqr fp z1 in
    let u2 = Modular.mul fp x2 z1z1 in
    let s2 = Modular.mul fp y2 (Modular.mul fp z1 z1z1) in
    if Nat.equal x1 u2 then begin
      if Nat.equal y1 s2 then double t p else Infinity
    end else begin
      let h = Modular.sub fp u2 x1 in
      let i = Modular.sqr fp (Modular.double fp h) in
      let j = Modular.mul fp h i in
      let r = Modular.double fp (Modular.sub fp s2 y1) in
      let v = Modular.mul fp x1 i in
      let x3 = Modular.sub fp (Modular.sub fp (Modular.sqr fp r) j) (Modular.double fp v) in
      let y3 =
        Modular.sub fp
          (Modular.mul fp r (Modular.sub fp v x3))
          (Modular.double fp (Modular.mul fp y1 j))
      in
      let z3 = Modular.double fp (Modular.mul fp z1 h) in
      if Nat.is_zero z3 then Infinity else Jacobian (x3, y3, z3)
    end

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
  tx : Nat.t array array;  (* tx.(i).(j) = x of (2j+1) * 2^(w*i) * B *)
  ty : Nat.t array array;  (* rows empty iff B is the identity *)
  offset : Nat.t;          (* 2^(wW) - 1 mod n *)
  half : Nat.t;            (* 1/2 mod n *)
}

(* Affine additions P_i + Q_i with slopes num.(i) / den.(i), every den
   nonzero, sharing one inversion ([batch_inv]): x3 = l^2 - x1 - x2 and
   y3 = l (x1 - x3) - y1 overwrite (x1.(i), y1.(i)). A chord has slope
   (y2 - y1) / (x2 - x1), a tangent (3 x1^2 + a) / (2 y1) with x2 = x1. *)
let slope_step t ~num ~den x1 y1 x2 =
  let fp = t.fp in
  let inv = batch_inv fp den in
  for i = 0 to Array.length den - 1 do
    let l = Modular.mul fp num.(i) inv.(i) in
    let x3 = Modular.sub fp (Modular.sub fp (Modular.sqr fp l) x1.(i)) x2.(i) in
    y1.(i) <- Modular.sub fp (Modular.mul fp l (Modular.sub fp x1.(i) x3)) y1.(i);
    x1.(i) <- x3
  done

let chord_step t ax ay bx by =
  let fp = t.fp in
  slope_step t
    ~num:(Array.map2 (Modular.sub fp) by ay)
    ~den:(Array.map2 (Modular.sub fp) bx ax)
    ax ay bx

let tangent_step t ax ay =
  let fp = t.fp in
  slope_step t
    ~num:(Array.map (fun x ->
        let xx = Modular.sqr fp x in
        Modular.add fp (Modular.add fp (Modular.double fp xx) xx) t.params.a) ax)
    ~den:(Array.map (Modular.double fp) ay)
    ax ay ax

(* Complete affine additions (ax, ay, ainf) += (bx, by, binf), where a
   set [inf] flag marks the identity. The unified slope
   (x1^2 + x1 x2 + x2^2 + a) / (y1 + y2) serves both P <> +-Q and P = Q;
   when y1 + y2 = 0 the chord slope takes over, and a zero chord
   denominator as well means P = -Q, whose sum is the identity (its
   denominator is replaced by 1 so the shared inversion stays defined).
   Every lane runs the same field operations; the flags only pick among
   the computed values. *)
let complete_step t ax ay ainf bx by binf =
  let fp = t.fp in
  let n = Array.length ax in
  let x0 = Array.copy ax and y0 = Array.copy ay in
  let num = Array.make n Nat.zero and den = Array.make n Nat.one in
  let opposite = Array.make n false in
  for i = 0 to n - 1 do
    let x1 = ax.(i) and y1 = ay.(i) and x2 = bx.(i) and y2 = by.(i) in
    let du = Modular.add fp y1 y2 in
    let nu =
      Modular.add fp
        (Modular.sub fp (Modular.sqr fp (Modular.add fp x1 x2)) (Modular.mul fp x1 x2))
        t.params.a
    in
    let dc = Modular.sub fp x2 x1 and nc = Modular.sub fp y2 y1 in
    let chord = Nat.is_zero du in
    let d = if chord then dc else du in
    opposite.(i) <- Nat.is_zero d;
    num.(i) <- (if chord then nc else nu);
    den.(i) <- (if opposite.(i) then Nat.one else d)
  done;
  slope_step t ~num ~den ax ay bx;
  for i = 0 to n - 1 do
    if binf.(i) then begin
      ax.(i) <- x0.(i);
      ay.(i) <- y0.(i)
    end
    else if ainf.(i) then begin
      ax.(i) <- bx.(i);
      ay.(i) <- by.(i);
      ainf.(i) <- false
    end
    else if opposite.(i) then ainf.(i) <- true
  done

(* The table is built in affine coordinates across all rows at once, so
   each step shares one inversion: the row bases 2^(w*i) * B come from
   doubling and one batch normalization; then, with D = 2c * B_i
   (a tangent, starting at c = 1), entries c .. 2c-1 are the chords
   entries 0 .. c-1 plus D. No denominator vanishes in a group of odd
   prime order: y = 0 would make a point 2-torsion, and a chord through
   (2j+1) B_i and 2c B_i with 2j+1 < 2c <= 2^(w-1) would need
   2j+1 = +-2c mod n. *)
let make_base_table t ~width pt =
  if width < 2 || width > 10 then invalid_arg "Curve.make_base_table: width";
  let fn = t.fn in
  let order = t.params.order in
  let rows = (Nat.bit_length order + width - 1) / width in
  let offset =
    Modular.reduce fn (Nat.sub (Nat.shift_left Nat.one (width * rows)) Nat.one)
  in
  let half = Nat.shift_right (Nat.add order Nat.one) 1 in
  if is_infinity pt then { width; tx = [||]; ty = [||]; offset; half }
  else begin
    let bases = Array.make rows pt in
    for i = 1 to rows - 1 do
      let b = ref bases.(i - 1) in
      for _ = 1 to width do b := double t !b done;
      bases.(i) <- !b
    done;
    let bx, by =
      Array.split
        (Array.map
           (function Some xy -> xy | None -> assert false (* odd order *))
           (to_affine_batch t bases))
    in
    let h = 1 lsl (width - 1) in
    let tx = Array.init rows (fun i -> Array.make h bx.(i)) in
    let ty = Array.init rows (fun i -> Array.make h by.(i)) in
    let dx = Array.copy bx and dy = Array.copy by in
    tangent_step t dx dy;
    let c = ref 1 in
    while !c < h do
      (* one chord step over all rows * c0 new entries *)
      let c0 = !c in
      let at a = (a / c0, a mod c0) in
      let sweep f = Array.init (rows * c0) (fun a -> let i, j = at a in f i j) in
      let ex = sweep (fun i j -> tx.(i).(j)) and ey = sweep (fun i j -> ty.(i).(j)) in
      chord_step t ex ey (sweep (fun i _ -> dx.(i))) (sweep (fun i _ -> dy.(i)));
      Array.iteri (fun a x -> let i, j = at a in tx.(i).(c0 + j) <- x) ex;
      Array.iteri (fun a y -> let i, j = at a in ty.(i).(c0 + j) <- y) ey;
      if 2 * c0 < h then tangent_step t dx dy;
      c := 2 * c0
    done;
    { width; tx; ty; offset; half }
  end

let base_table_rows (table : base_table) =
  Array.map2 (Array.map2 (fun x y -> Jacobian (x, y, Nat.one))) table.tx table.ty

let is_affine = function
  | Jacobian (_, _, z) -> Nat.equal z Nat.one
  | Infinity -> false

(* The table's recoded digits b_i of [k] (see above), least significant
   row first. Only called on tables with rows. *)
let comb_digits t (table : base_table) k =
  let fn = t.fn in
  let w = table.width in
  let rows = Array.length table.tx in
  let d = Modular.mul fn (Modular.add fn (Modular.reduce fn k) table.offset) table.half in
  let bytes = Nat.to_bytes_be ~len:(((w * rows) + 7) / 8) d in
  let nb = String.length bytes in
  let bit i = (Char.code (String.unsafe_get bytes (nb - 1 - (i lsr 3))) lsr (i land 7)) land 1 in
  Array.init rows (fun i ->
      let b = ref 0 in
      for j = w - 1 downto 0 do b := (!b lsl 1) lor bit ((w * i) + j) done;
      !b)

(* Row i's point for recoded digit b: e * 2^(w*i) * B, e = 2b - (2^w - 1). *)
let comb_entry t (table : base_table) i b =
  let h = 1 lsl (table.width - 1) in
  let s = b lsr (table.width - 1) in
  let j = b land (h - 1) lxor ((s - 1) land (h - 1)) in
  let y = table.ty.(i).(j) in
  (table.tx.(i).(j), [| Modular.neg t.fp y; y |].(s))

(* A lockstep lane's running values live in cells: field elements kept
   as raw limbs in int arrays allocated once per group and overwritten
   in place. A minor collection then finds nothing of the lanes to
   promote; boxed values stored into a group-sized array would all be
   copied to the major heap at every collection, and the major heap
   would grow with them. *)
let cell t = Array.make ((Nat.bit_length t.params.p + Nat.base_bits - 1) / Nat.base_bits) 0
let cell_get c = Nat.of_limbs c (Array.length c)
let cell_set c v = let n = Nat.to_limbs_into v c in Array.fill c n (Array.length c - n) 0

(* One chord row of a lockstep group: lane a adds [entry a] to its
   cells (cx.(a), cy.(a)), every lane sharing one inversion. Only the
   prefix products are kept between the two passes; the backward pass
   recomputes each lane's entry and denominator. *)
let comb_row t cx cy prefix entry =
  let fp = t.fp in
  let running = ref Nat.one in
  Array.iteri
    (fun a p ->
       cell_set p !running;
       running := Modular.mul fp !running (Modular.sub fp (fst (entry a)) (cell_get cx.(a))))
    prefix;
  let inv = ref (Modular.inv fp !running) in
  for a = Array.length prefix - 1 downto 0 do
    let x2, y2 = entry a in
    let x1 = cell_get cx.(a) and y1 = cell_get cy.(a) in
    let l = Modular.mul fp (Modular.mul fp !inv (cell_get prefix.(a))) (Modular.sub fp y2 y1) in
    inv := Modular.mul fp !inv (Modular.sub fp x2 x1);
    let x3 = Modular.sub fp (Modular.sub fp (Modular.sqr fp l) x1) x2 in
    cell_set cy.(a) (Modular.sub fp (Modular.mul fp l (Modular.sub fp x1 x3)) y1);
    cell_set cx.(a) x3
  done

(* Fixed-base multiplication off the comb table: no doublings (each row
   carries its 2^(w*i) factor) and one mixed add per row after the
   first. Every row does a lookup and an add, so the group-operation
   sequence does not depend on the scalar; only the last add can meet
   the equal or opposite case (see above), which [add_mixed] handles. *)
let mul_base_table t (table : base_table) k =
  let rows = Array.length table.tx in
  if rows = 0 then Infinity
  else begin
    let digits = comb_digits t table k in
    let entry i = let x, y = comb_entry t table i digits.(i) in Jacobian (x, y, Nat.one) in
    let acc = ref (entry 0) in
    for i = 1 to rows - 1 do acc := add_mixed t !acc (entry i) done;
    !acc
  end

(* Strauss-Shamir shared-accumulator computation of u*B + v*P, where B
   is the fixed base behind [table]. The v*P half runs width-5 wNAF
   (doublings + sparse adds); the u*B half needs no doublings of its
   own, so its comb-table mixed adds simply fold into the same
   accumulator — one joint chain instead of two multiplications plus a
   final add. Variable time; public inputs only. *)
let mul2 t (table : base_table) u v p =
  let v = Modular.reduce t.fn v in
  let acc = ref Infinity in
  if not (Nat.is_zero v || is_infinity p) then begin
    let tbl, ntbl = odd_multiples t p in
    List.iter
      (fun d ->
        acc := double t !acc;
        if d > 0 then acc := add t !acc tbl.(d / 2)
        else if d < 0 then acc := add t !acc ntbl.((-d) / 2))
      (wnaf5 v)
  end;
  let rows = Array.length table.tx in
  if rows > 0 then begin
    let digits = comb_digits t table u in
    for i = 0 to rows - 1 do
      let x, y = comb_entry t table i digits.(i) in
      acc := add_mixed t !acc (Jacobian (x, y, Nat.one))
    done
  end;
  !acc

(* --- lockstep batch of fixed-base multiplications ---------------------- *)

type comb_job = (base_table * Nat.t) list

let batch_group = 1024

(* One lockstep group: a lane per (job, term) walks its table's rows in
   affine coordinates, every lane of a row count together, so each row
   costs one inversion shared by the whole group. Rows 1 .. W-2 are
   chords, safe by the recoding argument above; row W-1 is a complete
   step. The terms of a multi-term job then merge with complete steps,
   one round per extra term. *)
let lockstep_group t (jobs : comb_job array) lo hi out =
  let lanes =
    Array.of_list
      (List.concat
         (List.init (hi - lo) (fun q ->
              List.map (fun (table, k) -> (q, table, k)) jobs.(lo + q))))
  in
  let nl = Array.length lanes in
  let rx = Array.make nl Nat.zero and ry = Array.make nl Nat.zero in
  let rinf = Array.make nl true in
  let row_counts =
    List.sort_uniq Int.compare
      (Array.to_list (Array.map (fun (_, table, _) -> Array.length table.tx) lanes))
  in
  List.iter
    (fun rows ->
       let idx =
         List.filter (fun l -> let _, table, _ = lanes.(l) in Array.length table.tx = rows)
           (List.init nl Fun.id)
         |> Array.of_list
       in
       if rows > 0 then begin
         let digits = Array.map (fun l -> let _, table, k = lanes.(l) in comb_digits t table k) idx in
         let entry i a = let _, table, _ = lanes.(idx.(a)) in comb_entry t table i digits.(a).(i) in
         let entries i = Array.split (Array.init (Array.length idx) (entry i)) in
         let cells () = Array.map (fun _ -> cell t) idx in
         let cx = cells () and cy = cells () and prefix = cells () in
         Array.iteri
           (fun a _ -> let x, y = entry 0 a in cell_set cx.(a) x; cell_set cy.(a) y)
           idx;
         for i = 1 to rows - 2 do comb_row t cx cy prefix (entry i) done;
         let ax = Array.map cell_get cx and ay = Array.map cell_get cy in
         let ainf = Array.make (Array.length idx) false in
         if rows >= 2 then begin
           let bx, by = entries (rows - 1) in
           complete_step t ax ay ainf bx by (Array.make (Array.length idx) false)
         end;
         Array.iteri
           (fun a l -> rx.(l) <- ax.(a); ry.(l) <- ay.(a); rinf.(l) <- ainf.(a))
           idx
       end)
    row_counts;
  (* merge: job q's terms are the consecutive lanes first.(q) .. *)
  let n = hi - lo in
  let first = Array.make n 0 and nterms = Array.make n 0 in
  Array.iteri
    (fun l (q, _, _) -> if nterms.(q) = 0 then first.(q) <- l; nterms.(q) <- nterms.(q) + 1)
    lanes;
  let jx = Array.init n (fun q -> if nterms.(q) = 0 then Nat.zero else rx.(first.(q))) in
  let jy = Array.init n (fun q -> if nterms.(q) = 0 then Nat.zero else ry.(first.(q))) in
  let jinf = Array.init n (fun q -> nterms.(q) = 0 || rinf.(first.(q))) in
  let max_terms = Array.fold_left max 0 nterms in
  for r = 1 to max_terms - 1 do
    let idx = Array.of_list (List.filter (fun q -> nterms.(q) > r) (List.init n Fun.id)) in
    let gather a = Array.map (fun q -> a.(q)) idx in
    let term a = Array.map (fun q -> a.(first.(q) + r)) idx in
    let ax = gather jx and ay = gather jy and ainf = gather jinf in
    complete_step t ax ay ainf (term rx) (term ry) (term rinf);
    Array.iteri (fun a q -> jx.(q) <- ax.(a); jy.(q) <- ay.(a); jinf.(q) <- ainf.(a)) idx
  done;
  for q = 0 to n - 1 do
    out.(lo + q) <- (if jinf.(q) then Infinity else Jacobian (jx.(q), jy.(q), Nat.one))
  done

let mul_base_batch t (jobs : comb_job array) =
  let n = Array.length jobs in
  let out = Array.make n Infinity in
  let groups = (n + batch_group - 1) / batch_group in
  for g = 0 to groups - 1 do
    lockstep_group t jobs (g * n / groups) ((g + 1) * n / groups) out
  done;
  out

(* --- multi-scalar multiplication (batch verification kernel) ---------- *)

(* Re-express every point with Z = 1 (one inversion total, Montgomery's
   trick), so the msm inner loops can take [add_mixed]. Infinity maps to
   Infinity, which [add_mixed] handles. *)
let normalize_batch t pts =
  Array.map
    (function None -> Infinity | Some xy -> of_affine t xy)
    (to_affine_batch t pts)

(* GLV decomposition k = k1 + k2*lambda (mod n), both halves ~128 bits.
   c1 = round(b2*k/n) and c2 = round(b1*k/n) project k onto the short
   basis; k1 = k - c1*a1 - c2*a2 and k2 = c1*b1 - c2*b2 come out signed,
   returned as (negate, magnitude). The identity holds for *any* c1,
   c2 once [endo_valid] has checked the basis congruences — the
   rounding only controls how short the halves are, never soundness. *)
let endo_split t e k =
  (* n is within 2^-127 of 2^bits, so dividing by n rounds the same as
     shifting by bits up to +-2 — which only lengthens the halves by a
     couple of bits, never breaks the k1 + k2*lambda identity. *)
  let bits = Nat.bit_length t.params.order in
  let round_div num = Nat.shift_right num bits in
  let c1 = round_div (Nat.mul e.e_b2 k) in
  let c2 = round_div (Nat.mul e.e_b1 k) in
  let signed_sub a b =
    if Nat.compare a b >= 0 then (false, Nat.sub a b) else (true, Nat.sub b a)
  in
  let k1 = signed_sub k (Nat.add (Nat.mul c1 e.e_a1) (Nat.mul c2 e.e_a2)) in
  let k2 = signed_sub (Nat.mul c1 e.e_b1) (Nat.mul c2 e.e_b2) in
  (k1, k2)

(* Window width for precomputed tables: 2^(8-2) = 64 odd multiples,
   cutting the point's digit density from 1/6 (width 5) to 1/9 for a
   one-time build of ~64 additions per point. *)
let precomp_width = 8

let precompute t p =
  match to_affine t p with
  | None ->
    (* the identity contributes nothing; msm drops such terms *)
    { pre_pt = Infinity; ptp = [||]; ptn = [||]; pphi = [||]; pnphi = [||] }
  | Some xy ->
    let p = of_affine t xy in
    let half = 1 lsl (precomp_width - 2) in
    let p2 =
      match to_affine t (double t p) with
      | Some xy -> of_affine t xy
      | None -> assert false (* 2P = O is impossible in an odd-order group *)
    in
    let tbl = Array.make half p in
    for i = 1 to half - 1 do tbl.(i) <- add_mixed t tbl.(i - 1) p2 done;
    let tbl = normalize_batch t tbl in
    let phi =
      match t.endo with
      | None -> [||]
      | Some e ->
        Array.map
          (function
            | Infinity -> Infinity
            | Jacobian (x, y, z) -> Jacobian (Modular.mul t.fp e.e_beta x, y, z))
          tbl
    in
    { pre_pt = p; ptp = tbl; ptn = Array.map (neg t) tbl;
      pphi = phi; pnphi = Array.map (neg t) phi }

let precomp_point pc = pc.pre_pt

let gen_tables t =
  match Atomic.get t.gen_tables with
  | Some g -> g
  | None ->
    (* racing domains may both build the table; exactly one result is
       published and everyone converges on it *)
    let gt = precompute t (generator t) in
    if Atomic.compare_and_set t.gen_tables None (Some gt) then gt
    else (match Atomic.get t.gen_tables with Some g -> g | None -> gt)

(* Joint Strauss for small-to-medium batches: per-point wNAF digit
   strings share one doubling chain, so n points cost ~256 doubles
   total plus sparse adds each, instead of n*(256 doubles + adds) run
   serially. The per-point odd-multiple tables are batch-normalized
   once so every digit add is a mixed add.

   Each entry is one digit string walking a (positive, negative) table
   pair. On a curve with a GLV endomorphism, a full-width scalar splits
   into two ~128-bit strings — the second walking a phi-image of the
   first's table (x scaled by beta: one field mul per entry instead of
   rebuilding the odd multiples) — which halves the length of the
   shared doubling chain; signs fold in by swapping the table pair.
   Scalars already short enough to be single strings (the batch
   verifiers' 128-bit random weights) get width-4 tables instead: with
   only one string amortizing the table, the smaller build wins.
   Generator terms skip table building entirely via the process-wide
   [gen_tables]. *)
let msm_strauss t (pre : (Nat.t * precomp) array) (pairs : (Nat.t * point) array) =
  (* generator terms ride the process-wide precomputed table instead of
     building a per-call one *)
  let is_gen = function
    | Jacobian (x, y, z) ->
      Nat.equal z Nat.one && Nat.equal x t.params.gx && Nat.equal y t.params.gy
    | Infinity -> false
  in
  let pre =
    let extra = ref [] in
    Array.iter (fun (k, p) -> if is_gen p then extra := (k, gen_tables t) :: !extra) pairs;
    if !extra = [] then pre else Array.append pre (Array.of_list !extra)
  in
  let pairs =
    if Array.exists (fun (_, p) -> is_gen p) pairs
    then Array.of_list (List.filter (fun (_, p) -> not (is_gen p)) (Array.to_list pairs))
    else pairs
  in
  let n = Array.length pairs in
  (* per-pair odd-multiple table size: 4 = single short string (the
     batch verifiers' 128-bit weights), 8 = full width / GLV *)
  let sizes = Array.make n 8 in
  (match t.endo with
   | None -> ()
   | Some _ ->
     Array.iteri
       (fun j (k, _) -> if Nat.bit_length k <= 140 then sizes.(j) <- 4)
       pairs);
  let offs = Array.make n 0 in
  let total = ref 0 in
  for j = 0 to n - 1 do
    offs.(j) <- !total;
    total := !total + sizes.(j)
  done;
  (* Normalize every input point and its double first (one shared
     inversion): the odd-multiple additions per point then all take the
     mixed path instead of the full Jacobian formula, and the base
     entries enter the flat table already affine. *)
  let base = Array.make (2 * n) Infinity in
  Array.iteri
    (fun j (_, p) ->
       base.(2 * j) <- p;
       base.(2 * j + 1) <- double t p)
    pairs;
  let base = normalize_batch t base in
  let flat = Array.make (max !total 1) Infinity in
  for j = 0 to n - 1 do
    let sz = sizes.(j) in
    let off = offs.(j) in
    flat.(off) <- base.(2 * j);
    let p2 = base.(2 * j + 1) in
    for i = 1 to sz - 1 do
      flat.(off + i) <- add_mixed t flat.(off + i - 1) p2
    done
  done;
  let flat = normalize_batch t flat in
  let nflat = Array.map (neg t) flat in
  let glv w m1 m2 tp tn ptp ptn =
    let entry (negate, m) a b =
      if Nat.is_zero m then None
      else if negate then Some (Array.of_list (wnaf w m), b, a, 0)
      else Some (Array.of_list (wnaf w m), a, b, 0)
    in
    List.filter_map Fun.id [ entry m1 tp tn; entry m2 ptp ptn ]
  in
  let pre_entries =
    List.concat_map
      (fun (k, pc) ->
         match t.endo with
         | Some e when Array.length pc.pphi > 0 ->
           let m1, m2 = endo_split t e k in
           glv precomp_width m1 m2 pc.ptp pc.ptn pc.pphi pc.pnphi
         | _ -> [ (Array.of_list (wnaf precomp_width k), pc.ptp, pc.ptn, 0) ])
      (Array.to_list pre)
  in
  let pair_entries =
    match t.endo with
    | None ->
      List.mapi
        (fun j (k, _) -> (Array.of_list (wnaf 5 k), flat, nflat, offs.(j)))
        (Array.to_list pairs)
    | Some e ->
      (* phi maps a normalized (x, y, 1) to (beta*x, y, 1), so the
         phi-slice entries stay valid mixed-add inputs; the slice is
         eight field multiplications, not eight point additions *)
      let phi_slice off =
        let f =
          Array.init 8 (fun i ->
              match flat.(off + i) with
              | Infinity -> Infinity
              | Jacobian (x, y, z) -> Jacobian (Modular.mul t.fp e.e_beta x, y, z))
        in
        (f, Array.map (neg t) f)
      in
      List.concat
        (List.mapi
           (fun j (k, _) ->
              if sizes.(j) = 4 then
                [ (Array.of_list (wnaf 4 k), flat, nflat, offs.(j)) ]
              else begin
                let m1, m2 = endo_split t e k in
                let off = offs.(j) in
                let sl p = Array.sub p off 8 in
                let phi, nphi = phi_slice off in
                glv 5 m1 m2 (sl flat) (sl nflat) phi nphi
              end)
           (Array.to_list pairs))
  in
  let entries = Array.of_list (pre_entries @ pair_entries) in
  let maxlen =
    Array.fold_left (fun m (d, _, _, _) -> max m (Array.length d)) 0 entries
  in
  (* Resolve every nonzero digit to its table point up front: the
     doubling loop then walks a per-position add schedule with no
     per-entry bookkeeping inside it (shorter digit strings align at
     the least-significant end). Add order within a position is
     irrelevant — the group is abelian. *)
  let sched = Array.make (max maxlen 1) [] in
  Array.iter
    (fun (d, tp, tn, off) ->
       let shift = maxlen - Array.length d in
       Array.iteri
         (fun pos dg ->
            if dg > 0 then sched.(pos + shift) <- tp.(off + dg / 2) :: sched.(pos + shift)
            else if dg < 0 then sched.(pos + shift) <- tn.(off + (-dg) / 2) :: sched.(pos + shift))
         d)
    entries;
  let acc = ref Infinity in
  for i = 0 to maxlen - 1 do
    acc := double t !acc;
    List.iter (fun q -> acc := add_mixed t !acc q) sched.(i)
  done;
  !acc

(* Bucketed Pippenger for large batches: per c-bit window, points
   accumulate into their digit's bucket (mixed adds against the
   batch-normalized inputs) and the window sum comes out of a running
   suffix sum; cost is ~windows * (n + 2^(c+1)) adds + 256 doubles,
   sublinear per point once n dominates the bucket count. *)
let msm_pippenger t ~window:c (pairs : (Nat.t * point) array) =
  let pts = normalize_batch t (Array.map snd pairs) in
  let nbits = Nat.bit_length t.params.order in
  let windows = (nbits + c - 1) / c in
  let nbuckets = (1 lsl c) - 1 in
  let buckets = Array.make (nbuckets + 1) Infinity in
  let digit k w =
    let base = w * c in
    let d = ref 0 in
    for b = c - 1 downto 0 do
      d := (!d lsl 1) lor (if Nat.testbit k (base + b) then 1 else 0)
    done;
    !d
  in
  let acc = ref Infinity in
  for w = windows - 1 downto 0 do
    if w < windows - 1 then for _ = 1 to c do acc := double t !acc done;
    Array.fill buckets 0 (nbuckets + 1) Infinity;
    Array.iteri
      (fun i (k, _) ->
         let d = digit k w in
         if d <> 0 then buckets.(d) <- add_mixed t buckets.(d) pts.(i))
      pairs;
    (* sum_d d * bucket(d) as a running suffix sum: the suffix sum after
       step d is bucket(d) + ... + bucket(max), and adding it once per
       step contributes each bucket exactly d times *)
    let suffix = ref Infinity and wsum = ref Infinity in
    for d = nbuckets downto 1 do
      suffix := add t !suffix buckets.(d);
      wsum := add t !wsum !suffix
    done;
    acc := add t !acc !wsum
  done;
  !acc

(* Multi-scalar multiplication sum_i k_i * P_i (+ sum_j k_j * Q_j for
   precomputed Q_j). Strategy is chosen from the (post-filtering) batch
   size: wNAF Strauss while the shared doubling chain dominates,
   bucketed Pippenger once bucket reuse wins (precomputed tables are
   flattened back to plain pairs there — bucket accumulation never
   walks odd-multiple tables); [?window] forces the Pippenger path with
   the given window width (differential tests use this to cover both
   paths at small n). Variable time — public scalars and points only
   (curve.mli). *)
let msm_dispatch ?window t (pre : (Nat.t * precomp) array) (pairs : (Nat.t * point) array) =
  (* Scalars of one or two bits (notably the pinned weight 1 some batch
     verifiers use) are cheaper as a couple of direct additions than as
     a table-and-digit-string entry. *)
  let tiny = ref Infinity in
  let keep_tiny k p =
    let kp =
      match Nat.to_int k with
      | 1 -> p
      | 2 -> double t p
      | _ -> add t p (double t p)
    in
    tiny := add t !tiny kp
  in
  let live_filter to_pt l =
    Array.of_list
      (List.filter_map
         (fun (k, x) ->
            let k = Modular.reduce t.fn k in
            if Nat.is_zero k || is_infinity (to_pt x) then None
            else if Nat.bit_length k <= 2 then (keep_tiny k (to_pt x); None)
            else Some (k, x))
         (Array.to_list l))
  in
  let live_pre = live_filter (fun pc -> pc.pre_pt) pre in
  let live = live_filter (fun p -> p) pairs in
  let main =
    match window, Array.length live_pre, Array.length live with
    | None, 0, 0 -> Infinity
    | None, 0, 1 -> let k, p = live.(0) in mul_vartime t k p
    | None, np, n when np + n <= 256 -> msm_strauss t live_pre live
    | _ ->
      let flat =
        Array.append (Array.map (fun (k, pc) -> (k, pc.pre_pt)) live_pre) live
      in
      let c =
        match window with
        | Some c ->
          if c < 1 || c > 16 then invalid_arg "Curve.msm: window out of range";
          c
        | None ->
          let rec ilog2 v = if v <= 1 then 0 else 1 + ilog2 (v lsr 1) in
          min 12 (max 4 (ilog2 (Array.length flat) - 2))
      in
      if Array.length flat = 0 then Infinity else msm_pippenger t ~window:c flat
  in
  add t main !tiny

let msm ?window t pairs = msm_dispatch ?window t [||] pairs
let msm_pre t pre pairs = msm_dispatch t pre pairs

let equal t p q =
  match p, q with
  | Infinity, Infinity -> true
  | Infinity, Jacobian _ | Jacobian _, Infinity -> false
  | Jacobian (x1, y1, z1), Jacobian (x2, y2, z2) ->
    (* cross-multiply to compare without inversion *)
    let fp = t.fp in
    let z1z1 = Modular.sqr fp z1 and z2z2 = Modular.sqr fp z2 in
    Nat.equal (Modular.mul fp x1 z2z2) (Modular.mul fp x2 z1z1)
    && Nat.equal
      (Modular.mul fp y1 (Modular.mul fp z2 z2z2))
      (Modular.mul fp y2 (Modular.mul fp z1 z1z1))

(* Point encoding: 0x00 for infinity; otherwise 0x04 || X || Y
   (uncompressed, fixed width). *)
let encode t pt =
  match to_affine t pt with
  | None -> "\x00"
  | Some (x, y) ->
    "\x04" ^ Nat.to_bytes_be ~len:t.byte_len x ^ Nat.to_bytes_be ~len:t.byte_len y

let decode t s =
  if s = "\x00" then Some Infinity
  else if String.length s = 1 + 2 * t.byte_len && s.[0] = '\x04' then begin
    let x = Nat.of_bytes_be (String.sub s 1 t.byte_len) in
    let y = Nat.of_bytes_be (String.sub s (1 + t.byte_len) t.byte_len) in
    if Nat.compare x t.params.p < 0 && Nat.compare y t.params.p < 0 && on_curve t (x, y)
    then Some (of_affine t (x, y))
    else None
  end
  else None

(* Square root mod p for p = 3 mod 4 (both supported curves):
   sqrt(a) = a^((p+1)/4) when a is a quadratic residue. The exponent is
   cached in [t] — recomputing it per probe used to cost a 256-bit
   add+shift on every decode_compressed and hash_to_point attempt. *)
let field_sqrt t a =
  let y = Modular.pow t.fp a t.sqrt_e in
  if Nat.equal (Modular.sqr t.fp y) (Modular.reduce t.fp a) then Some y else None

(* Compressed encoding: 0x00 for infinity, else 0x02/0x03 (y parity)
   followed by X — half the bytes of the uncompressed form. *)
let encode_compressed t pt =
  match to_affine t pt with
  | None -> "\x00"
  | Some (x, y) ->
    let prefix = if Nat.is_odd y then "\x03" else "\x02" in
    prefix ^ Nat.to_bytes_be ~len:t.byte_len x

let decode_compressed t s =
  if s = "\x00" then Some Infinity
  else if String.length s = 1 + t.byte_len && (s.[0] = '\x02' || s.[0] = '\x03') then begin
    let x = Nat.of_bytes_be (String.sub s 1 t.byte_len) in
    if Nat.compare x t.params.p >= 0 then None
    else begin
      let fp = t.fp in
      let rhs =
        Modular.add fp
          (Modular.add fp (Modular.mul fp (Modular.sqr fp x) x) (Modular.mul fp t.params.a x))
          t.params.b
      in
      match field_sqrt t rhs with
      | None -> None
      | Some y ->
        let want_odd = s.[0] = '\x03' in
        let y = if Nat.is_odd y = want_odd then y else Modular.neg fp y in
        Some (of_affine t (x, y))
    end
  end
  else None

(* Hash-to-point by try-and-increment on SHA-256 outputs: used to derive
   a second generator H with unknown discrete log w.r.t. G (needed by
   the lifted-ElGamal commitment key). *)
let hash_to_point t label =
  let fp = t.fp in
  let rec try_counter i =
    if i > 1000 then failwith "Curve.hash_to_point: no point found";
    let h = Dd_crypto.Sha256.digest_list [ label; string_of_int i ] in
    let x = Modular.of_bytes_be fp h in
    let rhs =
      Modular.add fp
        (Modular.add fp (Modular.mul fp (Modular.sqr fp x) x) (Modular.mul fp t.params.a x))
        t.params.b
    in
    match field_sqrt t rhs with
    | Some y -> of_affine t (x, y)
    | None -> try_counter (i + 1)
  in
  try_counter 0

(* Hash arbitrary bytes to a scalar mod the group order. Parts are
   length-prefixed so that part boundaries are unambiguous (hashing
   ["ab"] differs from ["a"; "b"]). *)
let hash_to_scalar t parts =
  let framed =
    List.concat_map (fun p -> [ Printf.sprintf "%010d" (String.length p); p ]) parts
  in
  Modular.of_bytes_be t.fn (Dd_crypto.Sha256.digest_list framed)
