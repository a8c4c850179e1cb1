(* Frozen copies of the seed revision's arithmetic, used as the
   "before" side of the before/after microbenchmarks in BENCH_micro.json.

   The library replaced these algorithms (specialized reductions, wNAF
   and Strauss-Shamir scalar multiplication, unsafe-access limb
   kernels); benchmarking the originals in the same process and run
   keeps the comparison honest — same machine, same compiler, same
   measurement harness. Field arithmetic is replicated exactly
   (bounds-checked schoolbook multiply + Barrett over Nat.mul), and the
   point-level baselines (double-and-add, skip-zero comb, old Schnorr
   verify formula) run their Jacobian formulas over that replicated
   field, so the whole seed stack is reproduced end to end. *)

module Nat = Dd_bignum.Nat
module Curve = Dd_group.Curve
module Group_ctx = Dd_group.Group_ctx
module Schnorr = Dd_sig.Schnorr

(* The seed stored Nat values as 30-bit limbs; the library has since
   moved to 62-bit limbs, so the seed's schoolbook (whose partial
   products need 2 * 30 + 1 bits of headroom) can no longer run
   directly on [Nat.to_limbs_into] output. The baseline is therefore
   frozen at its own narrow-limb width — 31 bits, each 62-bit limb
   split in two, which keeps the conversion a pair of shifts and gives
   the same 9-limb operand count the seed's 30-bit representation had
   for 256-bit fields (ceil(256/30) = ceil(256/31) = 9): identical loop
   trip counts, identical algorithm, honest "before" numbers. *)
let seed_bits = Nat.base_bits / 2
let seed_mask = (1 lsl seed_bits) - 1

let limbs_of n =
  let len = max 1 ((Nat.bit_length n + Nat.base_bits - 1) / Nat.base_bits) in
  let buf = Array.make len 0 in
  let cnt = Nat.to_limbs_into n buf in
  let h = Array.make (max 1 (2 * len)) 0 in
  for i = 0 to cnt - 1 do
    h.(2 * i) <- buf.(i) land seed_mask;
    h.((2 * i) + 1) <- buf.(i) lsr seed_bits
  done;
  let nh = ref (2 * cnt) in
  while !nh > 0 && h.(!nh - 1) = 0 do decr nh done;
  (h, !nh)

let nat_of_seed_limbs (h : int array) nh =
  let nl = (nh + 1) / 2 in
  let buf = Array.make (max 1 nl) 0 in
  for i = 0 to nl - 1 do
    let lo = if 2 * i < nh then h.(2 * i) else 0 in
    let hi = if (2 * i) + 1 < nh then h.((2 * i) + 1) else 0 in
    buf.(i) <- lo lor (hi lsl seed_bits)
  done;
  Nat.of_limbs buf nl

(* The seed's Nat.mul, shape-for-shape: schoolbook with bounds-checked
   array accesses (the current kernels use unsafe accesses and
   flattened fixed-width products — each worth ~30% on a 256-bit
   multiply). *)
let nat_mul (a : Nat.t) (b : Nat.t) : Nat.t =
  let a, la = limbs_of a and b, lb = limbs_of b in
  if la = 0 || lb = 0 then Nat.zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land seed_mask;
          carry := t lsr seed_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land seed_mask;
          carry := t lsr seed_bits;
          incr k
        done
      end
    done;
    nat_of_seed_limbs r (la + lb)
  end

(* The seed's Barrett context and reduction, driven by [nat_mul]. *)
type barrett = { m : Nat.t; k : int; mu : Nat.t }

let barrett m =
  let k = (Nat.bit_length m + seed_bits - 1) / seed_bits in
  { m; k; mu = Nat.div (Nat.shift_left Nat.one (2 * k * seed_bits)) m }

let reduce b x =
  if Nat.compare x b.m < 0 then x
  else if Nat.bit_length x > 2 * b.k * seed_bits then Nat.rem x b.m
  else begin
    let q1 = Nat.shift_right x ((b.k - 1) * seed_bits) in
    let q2 = nat_mul q1 b.mu in
    let q3 = Nat.shift_right q2 ((b.k + 1) * seed_bits) in
    let r = Nat.sub x (nat_mul q3 b.m) in
    let r = if Nat.compare r b.m >= 0 then Nat.sub r b.m else r in
    let r = if Nat.compare r b.m >= 0 then Nat.sub r b.m else r in
    if Nat.compare r b.m >= 0 then Nat.rem r b.m else r
  end

let field_mul b x y = reduce b (nat_mul x y)

(* Field helpers over the seed Barrett context. *)
let fadd b x y = let s = Nat.add x y in if Nat.compare s b.m >= 0 then Nat.sub s b.m else s
let fsub b x y = if Nat.compare x y >= 0 then Nat.sub x y else Nat.sub (Nat.add x b.m) y
let fdbl b x = fadd b x x
let fsqr b x = field_mul b x x

let fpow b x e =
  let n = Nat.bit_length e in
  let x = reduce b x in
  let r = ref Nat.one in
  for i = n - 1 downto 0 do
    r := fsqr b !r;
    if Nat.testbit e i then r := field_mul b !r x
  done;
  !r

(* Fermat inversion, as the seed's prime-field [Modular.inv] did. *)
let finv b x = fpow b x (Nat.sub b.m Nat.two)

(* A curve over the seed field: same Jacobian formulas as the seed's
   curve.ml (dbl-2007-bl / add-2007-bl), driven by the replicated
   schoolbook + Barrett arithmetic. *)
type scurve = { fb : barrett; ca : Nat.t; order_bits : int }

let scurve (params : Curve.params) =
  { fb = barrett params.Curve.p;
    ca = params.Curve.a;
    order_bits = Nat.bit_length params.Curve.order }

type spoint = Inf | Jac of Nat.t * Nat.t * Nat.t

let of_curve_point curve pt =
  match Curve.to_affine curve pt with
  | None -> Inf
  | Some (x, y) -> Jac (x, y, Nat.one)

let sdouble c = function
  | Inf -> Inf
  | Jac (x1, y1, z1) ->
    if Nat.is_zero y1 then Inf
    else begin
      let b = c.fb in
      let xx = fsqr b x1 in
      let yy = fsqr b y1 in
      let yyyy = fsqr b yy in
      let zz = fsqr b z1 in
      let s = fdbl b (fsub b (fsqr b (fadd b x1 yy)) (fadd b xx yyyy)) in
      let m = fadd b (fadd b (fdbl b xx) xx) (field_mul b c.ca (fsqr b zz)) in
      let x3 = fsub b (fsqr b m) (fdbl b s) in
      let y3 = fsub b (field_mul b m (fsub b s x3)) (fdbl b (fdbl b (fdbl b yyyy))) in
      let z3 = fsub b (fsqr b (fadd b y1 z1)) (fadd b yy zz) in
      if Nat.is_zero z3 then Inf else Jac (x3, y3, z3)
    end

let sadd c p q =
  match p, q with
  | Inf, r | r, Inf -> r
  | Jac (x1, y1, z1), Jac (x2, y2, z2) ->
    let b = c.fb in
    let z1z1 = fsqr b z1 in
    let z2z2 = fsqr b z2 in
    let u1 = field_mul b x1 z2z2 in
    let u2 = field_mul b x2 z1z1 in
    let s1 = field_mul b y1 (field_mul b z2 z2z2) in
    let s2 = field_mul b y2 (field_mul b z1 z1z1) in
    if Nat.equal u1 u2 then begin
      if Nat.equal s1 s2 then sdouble c p else Inf
    end else begin
      let h = fsub b u2 u1 in
      let i = fsqr b (fdbl b h) in
      let j = field_mul b h i in
      let r = fdbl b (fsub b s2 s1) in
      let v = field_mul b u1 i in
      let x3 = fsub b (fsub b (fsqr b r) j) (fdbl b v) in
      let y3 = fsub b (field_mul b r (fsub b v x3)) (fdbl b (field_mul b s1 j)) in
      let z3 = field_mul b h (fsub b (fsqr b (fadd b z1 z2)) (fadd b z1z1 z2z2)) in
      if Nat.is_zero z3 then Inf else Jac (x3, y3, z3)
    end

let sto_affine c = function
  | Inf -> None
  | Jac (x, y, z) ->
    let b = c.fb in
    let zi = finv b z in
    let zi2 = fsqr b zi in
    Some (field_mul b x zi2, field_mul b y (field_mul b zi2 zi))

(* The seed's Curve.mul: MSB-first double-and-add over however many
   bits the scalar happens to have. Expects a reduced scalar. *)
let point_mul c k pt =
  let nbits = Nat.bit_length k in
  let acc = ref Inf in
  for i = nbits - 1 downto 0 do
    acc := sdouble c !acc;
    if Nat.testbit k i then acc := sadd c !acc pt
  done;
  !acc

(* The seed's fixed-base comb table and its skip-zero evaluation. *)
let make_base_table c pt =
  let windows = (c.order_bits + 3) / 4 in
  let table = Array.make windows [||] in
  let base = ref pt in
  for w = 0 to windows - 1 do
    let row = Array.make 16 Inf in
    for d = 1 to 15 do row.(d) <- sadd c row.(d - 1) !base done;
    table.(w) <- row;
    base := sadd c row.(15) !base
  done;
  table

let mul_base_table c table k =
  let acc = ref Inf in
  Array.iteri
    (fun w row ->
       let d =
         (if Nat.testbit k (4*w) then 1 else 0)
         lor (if Nat.testbit k (4*w + 1) then 2 else 0)
         lor (if Nat.testbit k (4*w + 2) then 4 else 0)
         lor (if Nat.testbit k (4*w + 3) then 8 else 0)
       in
       if d <> 0 then acc := sadd c !acc row.(d))
    table;
  !acc

(* The seed's Schnorr.verify: comb for s*G, double-and-add for e*PK, a
   full point addition, then affine conversion (one Fermat inversion)
   inside the challenge hash — all over the replicated field. The
   challenge itself is SHA-256 framing, identical then and now, so the
   current [Schnorr.challenge] is reused for it. *)
let schnorr_verify gctx c ~g_table ~pk_seed ~pk msg ~s ~e =
  let r' = sadd c (mul_base_table c g_table s) (point_mul c e pk_seed) in
  match sto_affine c r' with
  | None -> false
  | Some xy ->
    let commitment = Curve.of_affine (Group_ctx.curve gctx) xy in
    Nat.equal e (Schnorr.challenge gctx ~commitment ~pk msg)
