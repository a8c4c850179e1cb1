(* Little-endian arrays of 62-bit limbs, normalized: the most significant
   limb is non-zero, and zero is the empty array.

   62-bit limbs halve the limb count of every linear pass (add, sub,
   compare, shift, codec) relative to the 30-bit representation this
   module started with. A 62x62 product does not fit a 63-bit native
   int, so schoolbook multiply forms each limb product from the limbs'
   31-bit halves, and long division works in half-limb space, where
   acc + a*b + carry <= (2^31-1) + (2^31-1)^2 + (2^31-1) = 2^62-1
   exactly fills the native-int range. 62 = 2*31, so the half-limb view
   of a value is just its limbs split in two — no repacking shift.

   Some 62-bit linear kernels intentionally let native ints wrap:
   a + b + carry for a, b < 2^62 can exceed max_int, but the low 63 bits
   of the two's-complement result are exact, so [s land limb_mask]
   extracts the limb and [s lsr 62] the carry (OCaml ints wrap on
   overflow by language definition). *)

type t = int array

(* 62-bit limbs assume 63-bit native ints: this library requires a
   64-bit platform. Fail loudly at load time instead of corrupting
   arithmetic on 32-bit / JS backends. *)
let () =
  if Sys.int_size < 63 then
    failwith
      "Dd_bignum.Nat: 62-bit limbs require 63-bit native ints \
       (64-bit platform); Sys.int_size is too small"

let base_bits = 62
let limb_mask = (1 lsl base_bits) - 1   (* = max_int on 63-bit ints *)

(* Half-limb view used by the multiplicative kernels. *)
let hbits = base_bits / 2               (* 31 *)
let hmask = (1 lsl hbits) - 1

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* --- limb buffers ------------------------------------------------------

   Raw little-endian limb buffers: a plain [int array] paired with a
   significant-limb count; limbs beyond the count may hold stale
   garbage. [mul] and [divmod] work on them internally, and [Fe]
   crosses into and out of its own limb layout through
   [to_limbs_into] / [of_limbs]. *)

let trim_limbs (buf : int array) n =
  let n = ref n in
  while !n > 0 && buf.(!n - 1) = 0 do decr n done;
  !n

let of_limbs (buf : int array) n : t =
  let n = trim_limbs buf n in
  Array.sub buf 0 n

let to_limbs_into (a : t) (buf : int array) =
  Array.blit a 0 buf 0 (Array.length a);
  Array.length a

let compare_limbs (a : int array) na (b : int array) nb =
  if na <> nb then Int.compare na nb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (na - 1)
  end

(* --- half-limb helpers (internal) -------------------------------------

   31-bit half-limb buffers for division, where every
   product fits a native int. [halves_of_limbs] splits each 62-bit limb
   into (low 31, high 31); since 62 = 2*31 the two views describe the
   same bit string. These use unchecked array access: the counts they
   are handed bound every index. *)

let halves_of_limbs (a : int array) na (h : int array) =
  for i = 0 to na - 1 do
    let v = Array.unsafe_get a i in
    Array.unsafe_set h (2 * i) (v land hmask);
    Array.unsafe_set h ((2 * i) + 1) (v lsr hbits)
  done;
  trim_limbs h (2 * na)

let limbs_of_halves (h : int array) nh (dst : int array) =
  let nl = (nh + 1) / 2 in
  for i = 0 to nl - 1 do
    let lo = if 2 * i < nh then Array.unsafe_get h (2 * i) else 0 in
    let hi = if (2 * i) + 1 < nh then Array.unsafe_get h ((2 * i) + 1) else 0 in
    Array.unsafe_set dst i (lo lor (hi lsl hbits))
  done;
  trim_limbs dst nl

(* dst := a * b, schoolbook over 62-bit limbs, each limb product formed
   from the limbs' 31-bit halves as it is needed: with a = a1 2^31 + a0
   and b = b1 2^31 + b0, a b = a1 b1 2^62 + (a1 b0 + a0 b1) 2^31 + a0 b0.
   The middle sum and the low word can pass max_int, but both stay
   below 2^63, so their 63 bits are exact and [lsr] reads them unsigned
   (see the header); the row's carry is the high limb of
   dst + a_i b_j + carry <= 2^124 - 1, below 2^62. [dst] must not alias
   [a] or [b] and must have room for [na + nb] limbs. Allocates
   nothing. *)
let mul_limbs_into (dst : int array) (a : int array) na (b : int array) nb =
  if na = 0 || nb = 0 then 0
  else begin
    Array.fill dst 0 (na + nb) 0;
    for i = 0 to na - 1 do
      let ai = Array.unsafe_get a i in
      if ai <> 0 then begin
        let a0 = ai land hmask and a1 = ai lsr hbits in
        let carry = ref 0 in
        for j = 0 to nb - 1 do
          let bj = Array.unsafe_get b j in
          let b0 = bj land hmask and b1 = bj lsr hbits in
          let mid = (a1 * b0) + (a0 * b1) in
          let lo = (a0 * b0) + ((mid land hmask) lsl hbits) in
          let hi = (a1 * b1) + (mid lsr hbits) + (lo lsr base_bits) in
          let s = Array.unsafe_get dst (i + j) + (lo land limb_mask) in
          let s' = (s land limb_mask) + !carry in
          Array.unsafe_set dst (i + j) (s' land limb_mask);
          carry := hi + (s lsr base_bits) + (s' lsr base_bits)
        done;
        Array.unsafe_set dst (i + nb) !carry
      end
    done;
    trim_limbs dst (na + nb)
  end

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  (* any non-negative int fits one 62-bit limb (max_int = 2^62 - 1) *)
  if n = 0 then zero else [| n |]

let to_int (a : t) =
  match Array.length a with
  | 0 -> 0
  | 1 -> a.(0)
  | _ -> invalid_arg "Nat.to_int: too large"

(* Explicit limb loop, not polymorphic [=]: the polymorphic comparator
   walks the runtime representation generically (boxing checks per
   element), an order of magnitude slower on the hot paths that compare
   field residues. *)
let equal (a : t) (b : t) =
  let la = Array.length a in
  la = Array.length b
  && begin
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (la - 1)
  end

let compare (a : t) (b : t) = compare_limbs a (Array.length a) b (Array.length b)

let bit_length (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
    (la - 1) * base_bits + width top
  end

let testbit (a : t) i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let is_odd (a : t) = testbit a 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let av = if i < la then a.(i) else 0 and bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    r.(i) <- d land limb_mask;
    borrow := d lsr base_bits
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    let n = mul_limbs_into r a la b lb in
    if n = la + lb then r else Array.sub r 0 n
  end

let sqr a = mul a a

let shift_left (a : t) n =
  if n < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else
      for i = 0 to la - 1 do
        (* [v lsl bits] would silently drop high bits at 62-bit limbs:
           compute the low and spilled parts separately. *)
        r.(i + limbs) <- r.(i + limbs) lor ((a.(i) lsl bits) land limb_mask);
        r.(i + limbs + 1) <- a.(i) lsr (base_bits - bits)
      done;
    normalize r
  end

let shift_right (a : t) n =
  if n < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if i + limbs + 1 < la then
            (a.(i + limbs + 1) lsl (base_bits - bits)) land limb_mask
          else 0
        in
        r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

(* Long division over 31-bit half-limbs (a 62x62 quotient estimate would
   overflow the native int). Single-half divisors divide half-by-half;
   the general case is Knuth's Algorithm D at base 2^31: normalize so
   the divisor's top half has its high bit set, estimate each quotient
   half from the top two halves of the running remainder (62-bit native
   division), correct by at most two decrements plus a rare add-back.
   O(na * nb) half-limb operations. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let la = Array.length a and lb = Array.length b in
    let ua = Array.make (2 * la) 0 and vb = Array.make (2 * lb) 0 in
    let nu = halves_of_limbs a la ua and nv = halves_of_limbs b lb vb in
    if nv = 1 then begin
      (* fast path: single-half divisor (< 2^31) *)
      let d = vb.(0) in
      let q = Array.make nu 0 in
      let r = ref 0 in
      for i = nu - 1 downto 0 do
        let cur = (!r lsl hbits) lor ua.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      let qd = Array.make ((nu + 1) / 2) 0 in
      let nq = limbs_of_halves q nu qd in
      (of_limbs qd nq, of_int !r)
    end
    else begin
      (* Algorithm D; here nv >= 2 and a >= b *)
      let top_width =
        let rec width n = if n = 0 then 0 else 1 + width (n lsr 1) in
        width vb.(nv - 1)
      in
      let shift = hbits - top_width in
      (* normalize: v := b << shift (top half gains its high bit),
         u := a << shift with one extra half of headroom *)
      let v = Array.make nv 0 in
      let u = Array.make (nu + 2) 0 in
      if shift = 0 then begin
        Array.blit vb 0 v 0 nv;
        Array.blit ua 0 u 0 nu
      end
      else begin
        for i = nv - 1 downto 1 do
          v.(i) <-
            ((vb.(i) lsl shift) land hmask) lor (vb.(i - 1) lsr (hbits - shift))
        done;
        v.(0) <- (vb.(0) lsl shift) land hmask;
        u.(nu) <- ua.(nu - 1) lsr (hbits - shift);
        for i = nu - 1 downto 1 do
          u.(i) <-
            ((ua.(i) lsl shift) land hmask) lor (ua.(i - 1) lsr (hbits - shift))
        done;
        u.(0) <- (ua.(0) lsl shift) land hmask
      end;
      let n = nv in
      let m = trim_limbs u (nu + 1) - n in
      let m = if m < 0 then 0 else m in
      let q = Array.make (m + 1) 0 in
      let vh = v.(n - 1) and vl = v.(n - 2) in
      let hbase = 1 lsl hbits in
      for j = m downto 0 do
        (* estimate q.(j) from the top two remainder halves *)
        let top2 = (u.(j + n) lsl hbits) lor u.(j + n - 1) in
        let qhat = ref (top2 / vh) and rhat = ref (top2 mod vh) in
        if !qhat >= hbase then begin
          rhat := !rhat + ((!qhat - (hbase - 1)) * vh);
          qhat := hbase - 1
        end;
        while
          !rhat < hbase && !qhat * vl > (!rhat lsl hbits) lor u.(j + n - 2)
        do
          decr qhat;
          rhat := !rhat + vh
        done;
        (* multiply-subtract: u[j .. j+n] -= qhat * v *)
        let carry = ref 0 and borrow = ref 0 in
        for i = 0 to n - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr hbits;
          let d = u.(i + j) - (p land hmask) - !borrow in
          u.(i + j) <- d land hmask;
          borrow := (d lsr hbits) land 1
        done;
        let d = u.(j + n) - !carry - !borrow in
        if d < 0 then begin
          (* estimate was one too high (rare): add the divisor back *)
          u.(j + n) <- d land hmask;
          decr qhat;
          let c = ref 0 in
          for i = 0 to n - 1 do
            let s = u.(i + j) + v.(i) + !c in
            u.(i + j) <- s land hmask;
            c := s lsr hbits
          done;
          u.(j + n) <- (u.(j + n) + !c) land hmask
        end
        else u.(j + n) <- d;
        q.(j) <- !qhat
      done;
      (* remainder: u[0 .. n-1] >> shift *)
      let nr = trim_limbs u n in
      let r = Array.make (if nr = 0 then 1 else nr) 0 in
      if shift = 0 then Array.blit u 0 r 0 nr
      else
        for i = 0 to nr - 1 do
          let lo = u.(i) lsr shift in
          let hi =
            if i + 1 < nr then (u.(i + 1) lsl (hbits - shift)) land hmask else 0
          in
          r.(i) <- lo lor hi
        done;
      let nr = trim_limbs r nr in
      let qd = Array.make ((m + 2) / 2) 0 in
      let nq = limbs_of_halves q (trim_limbs q (m + 1)) qd in
      let rd = Array.make ((nr + 2) / 2) 0 in
      let nrl = limbs_of_halves r nr rd in
      (of_limbs qd nq, of_limbs rd nrl)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Byte / hex codecs pack digits directly into limb buffers, keyed only
   off [base_bits] — no per-digit bignum shifts, and no alignment
   assumption between the digit width and the limb width. *)

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then zero
  else begin
    let nl = ((8 * n) + base_bits - 1) / base_bits in
    let r = Array.make nl 0 in
    for i = 0 to n - 1 do
      (* byte i counted from the least significant end *)
      let v = Char.code s.[n - 1 - i] in
      let bit = i * 8 in
      let limb = bit / base_bits and off = bit mod base_bits in
      r.(limb) <- r.(limb) lor ((v lsl off) land limb_mask);
      if off + 8 > base_bits then r.(limb + 1) <- r.(limb + 1) lor (v lsr (base_bits - off))
    done;
    normalize r
  end

let to_bytes_be ?len (a : t) =
  let nbytes = (bit_length a + 7) / 8 in
  let out_len = match len with
    | None -> if nbytes = 0 then 1 else nbytes
    | Some l ->
      if nbytes > l then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let buf = Bytes.make out_len '\000' in
  for i = 0 to nbytes - 1 do
    (* byte i counted from the least significant end *)
    let bit = i * 8 in
    let limb = bit / base_bits and off = bit mod base_bits in
    let v = a.(limb) lsr off in
    let v = if off + 8 > base_bits && limb + 1 < Array.length a
      then v lor (a.(limb + 1) lsl (base_bits - off))
      else v
    in
    Bytes.set buf (out_len - 1 - i) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string buf

let of_hex s =
  let digit c = match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex: bad digit"
  in
  let n = String.length s in
  if n = 0 then zero
  else begin
    let nl = ((4 * n) + base_bits - 1) / base_bits in
    let r = Array.make nl 0 in
    for i = 0 to n - 1 do
      (* nibble i counted from the least significant end *)
      let v = digit s.[n - 1 - i] in
      let bit = i * 4 in
      let limb = bit / base_bits and off = bit mod base_bits in
      r.(limb) <- r.(limb) lor ((v lsl off) land limb_mask);
      if off + 4 > base_bits then r.(limb + 1) <- r.(limb + 1) lor (v lsr (base_bits - off))
    done;
    normalize r
  end
