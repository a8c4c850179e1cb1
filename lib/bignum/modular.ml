(* Modular arithmetic with a reduction strategy chosen at [create] time:

   - Any odd modulus up to 1023 bits (notably both curve orders) gets a
     Montgomery domain: residues are multiplied as x*y*R^-1 mod m
     (R = 2^(31*hk)) with the quotient digit m' = -m^-1 mod 2^31
     absorbed limb by limb — no division and no Barrett product. The
     mul/sqr API stays in the standard domain (enter/exit per call,
     still ~3x cheaper than Barrett); [pow] and Fermat [inv] enter the
     domain once and run the whole square-and-multiply chain inside it.

   - Everything else (even moduli, oversized moduli, and every modulus
     under [~fast:false]) uses Barrett: the slow Nat.divmod runs once to
     compute the Barrett constant, and each reduction costs two
     multiplications. This is the differential-test reference, and
     [reduce] uses it for every modulus.

   The curves' base fields are not computed here: the group runs them
   on its own fixed-width limbs.

   The Montgomery kernels run over 31-bit half-limbs of Nat's 62-bit
   limbs (a 62x62 partial product does not fit a 63-bit native int; a
   31x31 product plus accumulator exactly does). Both curve orders are 9
   half-limbs wide, so they share the unrolled [mul9]/[sqr9] kernels
   below; other widths use generic loops.

   The Montgomery paths run on reused scratch buffers, so a
   multiplication performs one flattened product and a couple of linear
   passes without intermediate allocations. The scratch lives in
   Domain.DLS — one set of buffers per domain, shared by every context
   in that domain — so contexts are freely shareable across domains
   (each call borrows its own domain's scratch for the duration of the
   call only). *)

(* 31-bit half-limbs: Nat.base_bits = 62 = 2 * 31, so a limb's halves
   are (v land hmask, v lsr hbits) and the half view needs no repacking. *)
let hbits = Nat.base_bits / 2
let hmask = (1 lsl hbits) - 1

(* Scratch for the Montgomery paths, in 31-bit halves, sized for moduli
   up to 33 half-limbs (1023 bits). *)
type scratch = {
  xa : int array;     (* 36 halves: operand a / Montgomery base *)
  xb : int array;     (* 36 halves: operand b *)
  ra : int array;     (* 36 halves: Montgomery accumulator / results *)
  prod : int array;   (* 70 halves: product + REDC headroom (2k + 2) *)
}

let make_scratch () = {
  xa = Array.make 36 0;
  xb = Array.make 36 0;
  ra = Array.make 36 0;
  prod = Array.make 70 0;
}

(* One scratch per domain, shared by all contexts in that domain. A
   call borrows it only for its own duration, and a domain runs one
   reduction at a time, so this is race-free. *)
let scratch_key = Domain.DLS.new_key make_scratch

type strategy =
  | Barrett
  | Montgomery

(* Montgomery constants for an odd modulus m < R = 2^(31 * hk):
   [n0] = -m^-1 mod 2^31 (the per-digit quotient), [rr_h] = R^2 mod m
   (multiplying by it enters the domain), [r1_h] = R mod m (the domain
   image of 1). Half buffers are zero-padded to [hk]. *)
type mont = {
  n0 : int;
  rr_h : int array;
  r1_h : int array;
}

type ctx = {
  modulus : Nat.t;
  kl : int;                 (* 62-bit limbs in the modulus *)
  hk : int;                 (* 31-bit halves in the modulus *)
  strategy : strategy;
  prime : bool;             (* enables Fermat inversion *)
  mu : Nat.t;               (* Barrett constant floor(B^2kl / m) *)
  mh : int array;           (* modulus as halves (fast paths) *)
  mont : mont option;       (* Montgomery domain (odd modulus, fast) *)
}

(* Largest modulus the Montgomery scratch is sized for (33 halves). *)
let mont_max_halves = 33

let create ?(prime = true) ?(fast = true) modulus =
  if Nat.compare modulus Nat.two < 0 then invalid_arg "Modular.create: modulus < 2";
  let bits = Nat.bit_length modulus in
  let kl = (bits + Nat.base_bits - 1) / Nat.base_bits in
  let hk = (bits + hbits - 1) / hbits in
  let strategy =
    if fast && Nat.is_odd modulus && hk <= mont_max_halves then Montgomery else Barrett
  in
  let mu =
    let b2k = Nat.shift_left Nat.one (2 * kl * Nat.base_bits) in
    Nat.div b2k modulus
  in
  (* modulus as zero-padded halves; [2 * kl >= hk] always *)
  let mh = Array.make (2 * kl) 0 in
  let mlimbs = Array.make (kl + 1) 0 in
  let nml = Nat.to_limbs_into modulus mlimbs in
  for i = 0 to nml - 1 do
    mh.(2 * i) <- mlimbs.(i) land hmask;
    mh.((2 * i) + 1) <- mlimbs.(i) lsr hbits
  done;
  let mont =
    if fast && Nat.is_odd modulus && hk <= mont_max_halves then begin
      (* n0 = -m^-1 mod 2^31 by Newton iteration: each step doubles the
         number of correct low bits (1, 2, 4, ..., >= 31 after 6). *)
      let m0 = mh.(0) in
      let x = ref 1 in
      for _ = 1 to 6 do
        let t = (2 - (m0 * !x)) land hmask in
        x := (!x * t) land hmask
      done;
      let n0 = ((1 lsl hbits) - !x) land hmask in
      let to_padded_halves v =
        let h = Array.make (2 * kl) 0 in
        let nl = Nat.to_limbs_into v mlimbs in
        for i = 0 to nl - 1 do
          h.(2 * i) <- mlimbs.(i) land hmask;
          h.((2 * i) + 1) <- mlimbs.(i) lsr hbits
        done;
        h
      in
      let r = Nat.shift_left Nat.one (hbits * hk) in
      let rr_h = to_padded_halves (Nat.rem (Nat.mul r r) modulus) in
      let r1_h = to_padded_halves (Nat.rem r modulus) in
      Some { n0; rr_h; r1_h }
    end
    else None
  in
  { modulus; kl; hk; strategy; prime; mu; mh; mont }

let modulus ctx = ctx.modulus

let reduction_name ctx =
  match ctx.strategy with
  | Barrett -> "barrett"
  | Montgomery -> "montgomery"

(* --- Nat <-> half-limb crossings --------------------------------------- *)

(* Write [a]'s 31-bit halves into [h], zero-filling up to [pad] entries;
   returns the significant half count. [h] needs room for
   max(pad, 2 * limbs(a)) entries. The limbs land in [h] first and are
   split in place from the top, so no write overtakes an unread limb. *)
let unpack_halves (a : Nat.t) (h : int array) ~pad =
  let nl = Nat.to_limbs_into a h in
  for i = nl - 1 downto 0 do
    let v = Array.unsafe_get h i in
    Array.unsafe_set h ((2 * i) + 1) (v lsr hbits);
    Array.unsafe_set h (2 * i) (v land hmask)
  done;
  for i = 2 * nl to pad - 1 do h.(i) <- 0 done;
  Nat.trim_limbs h (2 * nl)

(* The value of halves [h.(0 .. nh - 1)], joined into limbs in place
   from the bottom (so [h] is clobbered). *)
let pack_halves (h : int array) nh =
  let nl = (nh + 1) / 2 in
  for i = 0 to nl - 1 do
    let lo = if 2 * i < nh then h.(2 * i) else 0 in
    let hi = if (2 * i) + 1 < nh then h.((2 * i) + 1) else 0 in
    h.(i) <- lo lor (hi lsl hbits)
  done;
  Nat.of_limbs h nl

(* --- half-limb linear kernels ------------------------------------------ *)

(* dst := dst - src; requires dst >= src numerically. *)
let half_sub_into (dst : int array) ndst (src : int array) nsrc =
  let borrow = ref 0 in
  for i = 0 to ndst - 1 do
    let bv = if i < nsrc then Array.unsafe_get src i else 0 in
    let d = Array.unsafe_get dst i - bv - !borrow in
    Array.unsafe_set dst i (d land hmask);
    borrow := (d lsr hbits) land 1
  done;
  Nat.trim_limbs dst ndst

(* --- unrolled 9-half multiply / square --------------------------------- *)
(* 9x9 half-limb schoolbook product, fully unrolled (fiat-crypto-style
   flattened product scanning). Operands are 31-bit half buffers with at
   least 9 entries (zero-padded); writes halves 0..17 of [dst]. Columns
   accumulate low and high parts of each 62-bit partial product
   separately so no intermediate exceeds the native-int range: a column
   sums at most 9 products' halves (< 9 * 2^31) plus a carry (< 2^36). *)
let mul9 (dst : int array) (a : int array) (b : int array) =
  let a0 = Array.unsafe_get a 0 in
  let a1 = Array.unsafe_get a 1 in
  let a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 in
  let a4 = Array.unsafe_get a 4 in
  let a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 in
  let a7 = Array.unsafe_get a 7 in
  let a8 = Array.unsafe_get a 8 in
  let b0 = Array.unsafe_get b 0 in
  let b1 = Array.unsafe_get b 1 in
  let b2 = Array.unsafe_get b 2 in
  let b3 = Array.unsafe_get b 3 in
  let b4 = Array.unsafe_get b 4 in
  let b5 = Array.unsafe_get b 5 in
  let b6 = Array.unsafe_get b 6 in
  let b7 = Array.unsafe_get b 7 in
  let b8 = Array.unsafe_get b 8 in
  let cr = 0 in
  (* column 0 *)
  let p0 = a0 * b0 in
  let sl = (p0 land hmask) in
  let sh = (p0 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 0 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 1 *)
  let p0 = a0 * b1 in
  let p1 = a1 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 1 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 2 *)
  let p0 = a0 * b2 in
  let p1 = a1 * b1 in
  let p2 = a2 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 2 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 3 *)
  let p0 = a0 * b3 in
  let p1 = a1 * b2 in
  let p2 = a2 * b1 in
  let p3 = a3 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 3 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 4 *)
  let p0 = a0 * b4 in
  let p1 = a1 * b3 in
  let p2 = a2 * b2 in
  let p3 = a3 * b1 in
  let p4 = a4 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 4 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 5 *)
  let p0 = a0 * b5 in
  let p1 = a1 * b4 in
  let p2 = a2 * b3 in
  let p3 = a3 * b2 in
  let p4 = a4 * b1 in
  let p5 = a5 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 5 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 6 *)
  let p0 = a0 * b6 in
  let p1 = a1 * b5 in
  let p2 = a2 * b4 in
  let p3 = a3 * b3 in
  let p4 = a4 * b2 in
  let p5 = a5 * b1 in
  let p6 = a6 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) + (p6 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) + (p6 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 6 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 7 *)
  let p0 = a0 * b7 in
  let p1 = a1 * b6 in
  let p2 = a2 * b5 in
  let p3 = a3 * b4 in
  let p4 = a4 * b3 in
  let p5 = a5 * b2 in
  let p6 = a6 * b1 in
  let p7 = a7 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) + (p6 land hmask) + (p7 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) + (p6 lsr hbits) + (p7 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 7 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 8 *)
  let p0 = a0 * b8 in
  let p1 = a1 * b7 in
  let p2 = a2 * b6 in
  let p3 = a3 * b5 in
  let p4 = a4 * b4 in
  let p5 = a5 * b3 in
  let p6 = a6 * b2 in
  let p7 = a7 * b1 in
  let p8 = a8 * b0 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) + (p6 land hmask) + (p7 land hmask) + (p8 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) + (p6 lsr hbits) + (p7 lsr hbits) + (p8 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 8 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 9 *)
  let p0 = a1 * b8 in
  let p1 = a2 * b7 in
  let p2 = a3 * b6 in
  let p3 = a4 * b5 in
  let p4 = a5 * b4 in
  let p5 = a6 * b3 in
  let p6 = a7 * b2 in
  let p7 = a8 * b1 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) + (p6 land hmask) + (p7 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) + (p6 lsr hbits) + (p7 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 9 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 10 *)
  let p0 = a2 * b8 in
  let p1 = a3 * b7 in
  let p2 = a4 * b6 in
  let p3 = a5 * b5 in
  let p4 = a6 * b4 in
  let p5 = a7 * b3 in
  let p6 = a8 * b2 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) + (p6 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) + (p6 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 10 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 11 *)
  let p0 = a3 * b8 in
  let p1 = a4 * b7 in
  let p2 = a5 * b6 in
  let p3 = a6 * b5 in
  let p4 = a7 * b4 in
  let p5 = a8 * b3 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) + (p5 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) + (p5 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 11 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 12 *)
  let p0 = a4 * b8 in
  let p1 = a5 * b7 in
  let p2 = a6 * b6 in
  let p3 = a7 * b5 in
  let p4 = a8 * b4 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) + (p4 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) + (p4 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 12 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 13 *)
  let p0 = a5 * b8 in
  let p1 = a6 * b7 in
  let p2 = a7 * b6 in
  let p3 = a8 * b5 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 13 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 14 *)
  let p0 = a6 * b8 in
  let p1 = a7 * b7 in
  let p2 = a8 * b6 in
  let sl = (p0 land hmask) + (p1 land hmask) + (p2 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 14 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 15 *)
  let p0 = a7 * b8 in
  let p1 = a8 * b7 in
  let sl = (p0 land hmask) + (p1 land hmask) in
  let sh = (p0 lsr hbits) + (p1 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 15 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 16 *)
  let p0 = a8 * b8 in
  let sl = (p0 land hmask) in
  let sh = (p0 lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 16 (s land hmask);
  let cr = (s lsr hbits) + sh in
  Array.unsafe_set dst 17 cr

(* 9-half squaring, unrolled: cross products below the diagonal are
   computed once and doubled per column (45 + 9 multiplications instead
   of 81). Same bounds as [mul9]: doubled cross sums stay < 9 * 2^31. *)
let sqr9 (dst : int array) (a : int array) =
  let a0 = Array.unsafe_get a 0 in
  let a1 = Array.unsafe_get a 1 in
  let a2 = Array.unsafe_get a 2 in
  let a3 = Array.unsafe_get a 3 in
  let a4 = Array.unsafe_get a 4 in
  let a5 = Array.unsafe_get a 5 in
  let a6 = Array.unsafe_get a 6 in
  let a7 = Array.unsafe_get a 7 in
  let a8 = Array.unsafe_get a 8 in
  let cr = 0 in
  (* column 0 *)
  let sl = 0 in
  let sh = 0 in
  let d = a0 * a0 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 0 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 1 *)
  let p0 = a0 * a1 in
  let sl = 2 * ((p0 land hmask)) in
  let sh = 2 * ((p0 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 1 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 2 *)
  let p0 = a0 * a2 in
  let sl = 2 * ((p0 land hmask)) in
  let sh = 2 * ((p0 lsr hbits)) in
  let d = a1 * a1 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 2 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 3 *)
  let p0 = a0 * a3 in
  let p1 = a1 * a2 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 3 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 4 *)
  let p0 = a0 * a4 in
  let p1 = a1 * a3 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits)) in
  let d = a2 * a2 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 4 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 5 *)
  let p0 = a0 * a5 in
  let p1 = a1 * a4 in
  let p2 = a2 * a3 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 5 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 6 *)
  let p0 = a0 * a6 in
  let p1 = a1 * a5 in
  let p2 = a2 * a4 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits)) in
  let d = a3 * a3 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 6 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 7 *)
  let p0 = a0 * a7 in
  let p1 = a1 * a6 in
  let p2 = a2 * a5 in
  let p3 = a3 * a4 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 7 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 8 *)
  let p0 = a0 * a8 in
  let p1 = a1 * a7 in
  let p2 = a2 * a6 in
  let p3 = a3 * a5 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits)) in
  let d = a4 * a4 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 8 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 9 *)
  let p0 = a1 * a8 in
  let p1 = a2 * a7 in
  let p2 = a3 * a6 in
  let p3 = a4 * a5 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask) + (p3 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits) + (p3 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 9 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 10 *)
  let p0 = a2 * a8 in
  let p1 = a3 * a7 in
  let p2 = a4 * a6 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits)) in
  let d = a5 * a5 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 10 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 11 *)
  let p0 = a3 * a8 in
  let p1 = a4 * a7 in
  let p2 = a5 * a6 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask) + (p2 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits) + (p2 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 11 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 12 *)
  let p0 = a4 * a8 in
  let p1 = a5 * a7 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits)) in
  let d = a6 * a6 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 12 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 13 *)
  let p0 = a5 * a8 in
  let p1 = a6 * a7 in
  let sl = 2 * ((p0 land hmask) + (p1 land hmask)) in
  let sh = 2 * ((p0 lsr hbits) + (p1 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 13 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 14 *)
  let p0 = a6 * a8 in
  let sl = 2 * ((p0 land hmask)) in
  let sh = 2 * ((p0 lsr hbits)) in
  let d = a7 * a7 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 14 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 15 *)
  let p0 = a7 * a8 in
  let sl = 2 * ((p0 land hmask)) in
  let sh = 2 * ((p0 lsr hbits)) in
  let s = cr + sl in
  Array.unsafe_set dst 15 (s land hmask);
  let cr = (s lsr hbits) + sh in
  (* column 16 *)
  let sl = 0 in
  let sh = 0 in
  let d = a8 * a8 in
  let sl = sl + (d land hmask) in
  let sh = sh + (d lsr hbits) in
  let s = cr + sl in
  Array.unsafe_set dst 16 (s land hmask);
  let cr = (s lsr hbits) + sh in
  Array.unsafe_set dst 17 cr

(* --- Barrett ----------------------------------------------------------- *)

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

(* --- Montgomery engine ------------------------------------------------- *)

(* In-place Montgomery reduction of the 2k-half product in [p]: for each
   of the k low halves, absorb it with the quotient digit
   q = p_i * n0 mod 2^31, adding q*m at position i. Leaves
   (p / R) mod-ish in p.(k ..); the result is < 2m (caller subtracts m
   at most once). [p] needs 2k + 2 entries with the two above the
   product zeroed (carry headroom). *)
let mont_redc (p : int array) (mh : int array) k n0 =
  for i = 0 to k - 1 do
    let q = (Array.unsafe_get p i * n0) land hmask in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let s =
        Array.unsafe_get p (i + j) + (q * Array.unsafe_get mh j) + !c
      in
      Array.unsafe_set p (i + j) (s land hmask);
      c := s lsr hbits
    done;
    let j = ref (i + k) in
    while !c <> 0 do
      let s = Array.unsafe_get p !j + !c in
      Array.unsafe_set p !j (s land hmask);
      c := s lsr hbits;
      incr j
    done
  done

(* Copy the REDC result out of st.prod.(k ..) into [dst], conditionally
   subtract the modulus, zero-pad to k halves; returns the count. *)
let mont_finish ctx st (dst : int array) =
  let k = ctx.hk in
  let p = st.prod in
  let nr = ref (k + 2) in
  while !nr > 0 && p.(k + !nr - 1) = 0 do decr nr done;
  for i = 0 to !nr - 1 do dst.(i) <- p.(k + i) done;
  let n = ref !nr in
  while Nat.compare_limbs dst !n ctx.mh k >= 0 do
    n := half_sub_into dst !n ctx.mh k
  done;
  for i = !n to k - 1 do dst.(i) <- 0 done;
  !n

(* dst := x * y * R^-1 mod m, over zero-padded k-half buffers. [dst] may
   alias [x] or [y] (the product is fully formed before [dst] is
   written). Returns the significant half count. *)
let mont_mul ctx mo st (x : int array) (y : int array) (dst : int array) =
  let k = ctx.hk in
  let p = st.prod in
  if k = 9 then begin
    mul9 p x y;
    p.(18) <- 0;
    p.(19) <- 0
  end
  else begin
    Array.fill p 0 ((2 * k) + 2) 0;
    for i = 0 to k - 1 do
      let xi = Array.unsafe_get x i in
      let c = ref 0 in
      for j = 0 to k - 1 do
        let s =
          Array.unsafe_get p (i + j) + (xi * Array.unsafe_get y j) + !c
        in
        Array.unsafe_set p (i + j) (s land hmask);
        c := s lsr hbits
      done;
      Array.unsafe_set p (i + k) !c
    done
  end;
  mont_redc p ctx.mh k mo.n0;
  mont_finish ctx st dst

(* dst := x^2 * R^-1 mod m, via the dedicated squaring kernel at k = 9. *)
let mont_sqr ctx mo st (x : int array) (dst : int array) =
  let k = ctx.hk in
  if k = 9 then begin
    let p = st.prod in
    sqr9 p x;
    p.(18) <- 0;
    p.(19) <- 0;
    mont_redc p ctx.mh k mo.n0;
    mont_finish ctx st dst
  end
  else mont_mul ctx mo st x x dst

(* dst := x * R^-1 mod m (domain exit: REDC of the bare value). *)
let mont_exit ctx mo st (x : int array) (dst : int array) =
  let k = ctx.hk in
  let p = st.prod in
  Array.blit x 0 p 0 k;
  Array.fill p k (k + 2) 0;
  mont_redc p ctx.mh k mo.n0;
  mont_finish ctx st dst

(* --- dispatch ----------------------------------------------------------- *)

let reduce ctx x = if Nat.compare x ctx.modulus < 0 then x else reduce_barrett ctx x

let add ctx a b =
  let s = Nat.add a b in
  if Nat.compare s ctx.modulus >= 0 then Nat.sub s ctx.modulus else s

let sub ctx a b =
  if Nat.compare a b >= 0 then Nat.sub a b
  else Nat.sub (Nat.add a ctx.modulus) b

let neg ctx a = if Nat.is_zero a then a else Nat.sub ctx.modulus a

(* Standard-domain multiplication via one REDC pair:
   REDC(REDC(a*b) * RR) = a*b mod m. The first REDC may use the
   squaring kernel when a == b. *)
let mul_via_mont ctx mo st ~square a b =
  let _ = unpack_halves a st.xa ~pad:ctx.hk in
  ignore
    (if square then mont_sqr ctx mo st st.xa st.ra
     else begin
       let _ = unpack_halves b st.xb ~pad:ctx.hk in
       mont_mul ctx mo st st.xa st.xb st.ra
     end);
  let n = mont_mul ctx mo st st.ra mo.rr_h st.ra in
  pack_halves st.ra n

let mul ctx a b =
  match ctx.strategy with
  | Barrett -> reduce_barrett ctx (Nat.mul a b)
  | Montgomery ->
    let mo = match ctx.mont with Some m -> m | None -> assert false in
    let a = if Nat.compare a ctx.modulus >= 0 then reduce ctx a else a in
    let b = if Nat.compare b ctx.modulus >= 0 then reduce ctx b else b in
    let st = Domain.DLS.get scratch_key in
    mul_via_mont ctx mo st ~square:false a b

(* Dedicated squaring: Montgomery moduli route the first REDC through
   the squaring kernel. *)
let sqr ctx a =
  match ctx.strategy with
  | Barrett -> reduce_barrett ctx (Nat.mul a a)
  | Montgomery ->
    let mo = match ctx.mont with Some m -> m | None -> assert false in
    let a = if Nat.compare a ctx.modulus >= 0 then reduce ctx a else a in
    let st = Domain.DLS.get scratch_key in
    mul_via_mont ctx mo st ~square:true a Nat.zero

let double ctx a = add ctx a a

(* Square-and-multiply. With a Montgomery domain available (any odd
   fast modulus) the whole chain runs inside the
   domain: one entry, one [sqr9]-backed REDC per squaring, one exit —
   Montgomery inversion when called from Fermat [inv]. *)
let pow ctx b e =
  match ctx.mont with
  | Some mo ->
    let b = reduce ctx b in
    let st = Domain.DLS.get scratch_key in
    let k = ctx.hk in
    let _ = unpack_halves b st.xb ~pad:k in
    let _ = mont_mul ctx mo st st.xb mo.rr_h st.xb in   (* enter domain *)
    Array.blit mo.r1_h 0 st.ra 0 k;                     (* acc := mont 1 *)
    for i = Nat.bit_length e - 1 downto 0 do
      let _ = mont_sqr ctx mo st st.ra st.ra in
      if Nat.testbit e i then
        ignore (mont_mul ctx mo st st.ra st.xb st.ra)
    done;
    let n = mont_exit ctx mo st st.ra st.ra in
    pack_halves st.ra n
  | None ->
    let n = Nat.bit_length e in
    let b = reduce ctx b in
    let r = ref Nat.one in
    for i = n - 1 downto 0 do
      r := sqr ctx !r;
      if Nat.testbit e i then r := mul ctx !r b
    done;
    !r

let inv ctx a =
  let a = reduce ctx a in
  if Nat.is_zero a then raise Division_by_zero;
  if ctx.prime then pow ctx a (Nat.sub ctx.modulus Nat.two)
  else begin
    (* extended Euclid with signed coefficients tracked as (sign, nat) *)
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
  end

let of_nat = reduce

let of_int ctx n = reduce ctx (Nat.of_int n)

(* Map a byte string to a residue (used for hash-to-scalar). *)
let of_bytes_be ctx s = reduce ctx (Nat.of_bytes_be s)
