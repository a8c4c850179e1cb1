(* Fixed-width field elements for secp256k1's prime
   p = 2^256 - 2^32 - 977.

   An element is ten 26-bit limbs, little-endian, in an [int array] the
   caller owns, always fully reduced (in [0, p), every limb < 2^26).
   26 bits leave room in a 63-bit native int for a whole column of the
   10 x 10 schoolbook product (ten 52-bit partial products, < 2^56), so
   a product is 100 multiplications into 19 column sums with no
   splitting into halves, held in locals: [mul], [sqr], [add], [sub],
   [neg] and [select] allocate nothing and use no scratch, and [dst]
   may alias any input.

   Reduction folds twice: the high columns, carried into ten 26-bit
   limbs, come down onto the low columns by 2^260 = 2^36 + 15632
   (mod p), then the few bits above 256 by 2^256 = 2^32 + 977. The
   value is then below 2p, and one conditional subtraction of p done as
   a mask select finishes it, as it does [add] and [sub]: no branch
   anywhere on a value. The limb counts, shifts and carry chains are
   the same for every input. *)

let mask = (1 lsl 26) - 1

(* The product columns are summed in int64 locals, which the compiler
   keeps unboxed: no tagging work per multiply. *)
external ( +! ) : int64 -> int64 -> int64 = "%int64_add"
external ( *! ) : int64 -> int64 -> int64 = "%int64_mul"

(* p's ten 26-bit limbs *)
let p0 = 0x3fffc2f and p1 = 0x3ffffbf and p2 = mask and p3 = mask and p4 = mask
let p5 = mask and p6 = mask and p7 = mask and p8 = mask and p9 = 0x3fffff

(* the public exponents of [inv] and [sqrt]: p - 2 and (p + 1) / 4 *)
let inv_e = Limbs.of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2d" 10
let sqrt_e = Limbs.of_hex "3fffffffffffffffffffffffffffffffffffffffffffffffffffffffbfffff0c" 10

type t = int array

let make () = Array.make 10 0

let reduce (dst : t) c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 c17 c18 =
  (* the high columns (each < 2^56) carried into ten 26-bit limbs *)
  let h0_ = c10 in let h0 = h0_ land mask in
  let h1_ = c11 + (h0_ lsr 26) in let h1 = h1_ land mask in
  let h2_ = c12 + (h1_ lsr 26) in let h2 = h2_ land mask in
  let h3_ = c13 + (h2_ lsr 26) in let h3 = h3_ land mask in
  let h4_ = c14 + (h3_ lsr 26) in let h4 = h4_ land mask in
  let h5_ = c15 + (h4_ lsr 26) in let h5 = h5_ land mask in
  let h6_ = c16 + (h5_ lsr 26) in let h6 = h6_ land mask in
  let h7_ = c17 + (h6_ lsr 26) in let h7 = h7_ land mask in
  let h8_ = c18 + (h7_ lsr 26) in let h8 = h8_ land mask in
  let h9 = h8_ lsr 26 in
  (* fold 1, into the low columns: high limb i lands on column i
     (x 15632) and column i + 1 (x 2^10); every r_i < 2^57 *)
  let r0 = c0 + (15632 * h0) in
  let r1 = c1 + (15632 * h1) + (h0 lsl 10) in
  let r2 = c2 + (15632 * h2) + (h1 lsl 10) in
  let r3 = c3 + (15632 * h3) + (h2 lsl 10) in
  let r4 = c4 + (15632 * h4) + (h3 lsl 10) in
  let r5 = c5 + (15632 * h5) + (h4 lsl 10) in
  let r6 = c6 + (15632 * h6) + (h5 lsl 10) in
  let r7 = c7 + (15632 * h7) + (h6 lsl 10) in
  let r8 = c8 + (15632 * h8) + (h7 lsl 10) in
  let r9 = c9 + (15632 * h9) + (h8 lsl 10) in
  let r10 = h9 lsl 10 in
  let s0 = r0 land mask in
  let r1 = r1 + (r0 lsr 26) in let s1 = r1 land mask in
  let r2 = r2 + (r1 lsr 26) in let s2 = r2 land mask in
  let r3 = r3 + (r2 lsr 26) in let s3 = r3 land mask in
  let r4 = r4 + (r3 lsr 26) in let s4 = r4 land mask in
  let r5 = r5 + (r4 lsr 26) in let s5 = r5 land mask in
  let r6 = r6 + (r5 lsr 26) in let s6 = r6 land mask in
  let r7 = r7 + (r6 lsr 26) in let s7 = r7 land mask in
  let r8 = r8 + (r7 lsr 26) in let s8 = r8 land mask in
  let r9 = r9 + (r8 lsr 26) in let s9 = r9 land mask in
  let s10 = r10 + (r9 lsr 26) in
  (* fold 2, at 2^256 = 2^32 + 977: h < 2^37 leaves v < 2^256 + 2^70 *)
  let h = (s9 lsr 22) + (s10 lsl 4) in
  let v0 = s0 + (977 * h) in
  let v1 = s1 + (h lsl 6) + (v0 lsr 26) in
  let v0 = v0 land mask in
  let v2 = s2 + (v1 lsr 26) in let v1 = v1 land mask in
  let v3 = s3 + (v2 lsr 26) in let v2 = v2 land mask in
  let v4 = s4 + (v3 lsr 26) in let v3 = v3 land mask in
  let v5 = s5 + (v4 lsr 26) in let v4 = v4 land mask in
  let v6 = s6 + (v5 lsr 26) in let v5 = v5 land mask in
  let v7 = s7 + (v6 lsr 26) in let v6 = v6 land mask in
  let v8 = s8 + (v7 lsr 26) in let v7 = v7 land mask in
  let v9 = (s9 land 0x3fffff) + (v8 lsr 26) in let v8 = v8 land mask in
  (* v < 2p: v >= p iff v + 2^32 + 977 reaches 2^256 *)
  let t0 = v0 + 977 in
  let t1 = v1 + 64 + (t0 lsr 26) in
  let t2 = v2 + (t1 lsr 26) in let t3 = v3 + (t2 lsr 26) in let t4 = v4 + (t3 lsr 26) in let t5 = v5 + (t4 lsr 26) in
  let t6 = v6 + (t5 lsr 26) in let t7 = v7 + (t6 lsr 26) in let t8 = v8 + (t7 lsr 26) in let t9 = v9 + (t8 lsr 26) in
  let m = - (t9 lsr 22) in
  Array.unsafe_set dst 0 ((t0 land mask land m) lor (v0 land lnot m));
  Array.unsafe_set dst 1 ((t1 land mask land m) lor (v1 land lnot m));
  Array.unsafe_set dst 2 ((t2 land mask land m) lor (v2 land lnot m));
  Array.unsafe_set dst 3 ((t3 land mask land m) lor (v3 land lnot m));
  Array.unsafe_set dst 4 ((t4 land mask land m) lor (v4 land lnot m));
  Array.unsafe_set dst 5 ((t5 land mask land m) lor (v5 land lnot m));
  Array.unsafe_set dst 6 ((t6 land mask land m) lor (v6 land lnot m));
  Array.unsafe_set dst 7 ((t7 land mask land m) lor (v7 land lnot m));
  Array.unsafe_set dst 8 ((t8 land mask land m) lor (v8 land lnot m));
  Array.unsafe_set dst 9 ((t9 land 0x3fffff land m) lor (v9 land lnot m))

let mul (dst : t) (a : t) (b : t) =
  let a0 = Int64.of_int (Array.unsafe_get a 0) and a1 = Int64.of_int (Array.unsafe_get a 1) and a2 = Int64.of_int (Array.unsafe_get a 2) and a3 = Int64.of_int (Array.unsafe_get a 3) and a4 = Int64.of_int (Array.unsafe_get a 4) in
  let a5 = Int64.of_int (Array.unsafe_get a 5) and a6 = Int64.of_int (Array.unsafe_get a 6) and a7 = Int64.of_int (Array.unsafe_get a 7) and a8 = Int64.of_int (Array.unsafe_get a 8) and a9 = Int64.of_int (Array.unsafe_get a 9) in
  let b0 = Int64.of_int (Array.unsafe_get b 0) and b1 = Int64.of_int (Array.unsafe_get b 1) and b2 = Int64.of_int (Array.unsafe_get b 2) and b3 = Int64.of_int (Array.unsafe_get b 3) and b4 = Int64.of_int (Array.unsafe_get b 4) in
  let b5 = Int64.of_int (Array.unsafe_get b 5) and b6 = Int64.of_int (Array.unsafe_get b 6) and b7 = Int64.of_int (Array.unsafe_get b 7) and b8 = Int64.of_int (Array.unsafe_get b 8) and b9 = Int64.of_int (Array.unsafe_get b 9) in
  let c0 = Int64.to_int (a0 *! b0) in
  let c1 = Int64.to_int (a0 *! b1 +! a1 *! b0) in
  let c2 = Int64.to_int (a0 *! b2 +! a1 *! b1 +! a2 *! b0) in
  let c3 = Int64.to_int (a0 *! b3 +! a1 *! b2 +! a2 *! b1 +! a3 *! b0) in
  let c4 = Int64.to_int (a0 *! b4 +! a1 *! b3 +! a2 *! b2 +! a3 *! b1 +! a4 *! b0) in
  let c5 = Int64.to_int (a0 *! b5 +! a1 *! b4 +! a2 *! b3 +! a3 *! b2 +! a4 *! b1 +! a5 *! b0) in
  let c6 = Int64.to_int (a0 *! b6 +! a1 *! b5 +! a2 *! b4 +! a3 *! b3 +! a4 *! b2 +! a5 *! b1 +! a6 *! b0) in
  let c7 = Int64.to_int (a0 *! b7 +! a1 *! b6 +! a2 *! b5 +! a3 *! b4 +! a4 *! b3 +! a5 *! b2 +! a6 *! b1 +! a7 *! b0) in
  let c8 = Int64.to_int (a0 *! b8 +! a1 *! b7 +! a2 *! b6 +! a3 *! b5 +! a4 *! b4 +! a5 *! b3 +! a6 *! b2 +! a7 *! b1 +! a8 *! b0) in
  let c9 = Int64.to_int (a0 *! b9 +! a1 *! b8 +! a2 *! b7 +! a3 *! b6 +! a4 *! b5 +! a5 *! b4 +! a6 *! b3 +! a7 *! b2 +! a8 *! b1 +! a9 *! b0) in
  let c10 = Int64.to_int (a1 *! b9 +! a2 *! b8 +! a3 *! b7 +! a4 *! b6 +! a5 *! b5 +! a6 *! b4 +! a7 *! b3 +! a8 *! b2 +! a9 *! b1) in
  let c11 = Int64.to_int (a2 *! b9 +! a3 *! b8 +! a4 *! b7 +! a5 *! b6 +! a6 *! b5 +! a7 *! b4 +! a8 *! b3 +! a9 *! b2) in
  let c12 = Int64.to_int (a3 *! b9 +! a4 *! b8 +! a5 *! b7 +! a6 *! b6 +! a7 *! b5 +! a8 *! b4 +! a9 *! b3) in
  let c13 = Int64.to_int (a4 *! b9 +! a5 *! b8 +! a6 *! b7 +! a7 *! b6 +! a8 *! b5 +! a9 *! b4) in
  let c14 = Int64.to_int (a5 *! b9 +! a6 *! b8 +! a7 *! b7 +! a8 *! b6 +! a9 *! b5) in
  let c15 = Int64.to_int (a6 *! b9 +! a7 *! b8 +! a8 *! b7 +! a9 *! b6) in
  let c16 = Int64.to_int (a7 *! b9 +! a8 *! b8 +! a9 *! b7) in
  let c17 = Int64.to_int (a8 *! b9 +! a9 *! b8) in
  let c18 = Int64.to_int (a9 *! b9) in
  reduce dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 c17 c18

let sqr (dst : t) (a : t) =
  let a0 = Int64.of_int (Array.unsafe_get a 0) and a1 = Int64.of_int (Array.unsafe_get a 1) and a2 = Int64.of_int (Array.unsafe_get a 2) and a3 = Int64.of_int (Array.unsafe_get a 3) and a4 = Int64.of_int (Array.unsafe_get a 4) in
  let a5 = Int64.of_int (Array.unsafe_get a 5) and a6 = Int64.of_int (Array.unsafe_get a 6) and a7 = Int64.of_int (Array.unsafe_get a 7) and a8 = Int64.of_int (Array.unsafe_get a 8) and a9 = Int64.of_int (Array.unsafe_get a 9) in
  let d0 = a0 +! a0 in
  let d1 = a1 +! a1 in
  let d2 = a2 +! a2 in
  let d3 = a3 +! a3 in
  let d4 = a4 +! a4 in
  let d5 = a5 +! a5 in
  let d6 = a6 +! a6 in
  let d7 = a7 +! a7 in
  let d8 = a8 +! a8 in
  let c0 = Int64.to_int (a0 *! a0) in
  let c1 = Int64.to_int (d0 *! a1) in
  let c2 = Int64.to_int (d0 *! a2 +! a1 *! a1) in
  let c3 = Int64.to_int (d0 *! a3 +! d1 *! a2) in
  let c4 = Int64.to_int (d0 *! a4 +! d1 *! a3 +! a2 *! a2) in
  let c5 = Int64.to_int (d0 *! a5 +! d1 *! a4 +! d2 *! a3) in
  let c6 = Int64.to_int (d0 *! a6 +! d1 *! a5 +! d2 *! a4 +! a3 *! a3) in
  let c7 = Int64.to_int (d0 *! a7 +! d1 *! a6 +! d2 *! a5 +! d3 *! a4) in
  let c8 = Int64.to_int (d0 *! a8 +! d1 *! a7 +! d2 *! a6 +! d3 *! a5 +! a4 *! a4) in
  let c9 = Int64.to_int (d0 *! a9 +! d1 *! a8 +! d2 *! a7 +! d3 *! a6 +! d4 *! a5) in
  let c10 = Int64.to_int (d1 *! a9 +! d2 *! a8 +! d3 *! a7 +! d4 *! a6 +! a5 *! a5) in
  let c11 = Int64.to_int (d2 *! a9 +! d3 *! a8 +! d4 *! a7 +! d5 *! a6) in
  let c12 = Int64.to_int (d3 *! a9 +! d4 *! a8 +! d5 *! a7 +! a6 *! a6) in
  let c13 = Int64.to_int (d4 *! a9 +! d5 *! a8 +! d6 *! a7) in
  let c14 = Int64.to_int (d5 *! a9 +! d6 *! a8 +! a7 *! a7) in
  let c15 = Int64.to_int (d6 *! a9 +! d7 *! a8) in
  let c16 = Int64.to_int (d7 *! a9 +! a8 *! a8) in
  let c17 = Int64.to_int (d8 *! a9) in
  let c18 = Int64.to_int (a9 *! a9) in
  reduce dst c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 c17 c18

let add (dst : t) (a : t) (b : t) =
  let s0 = Array.unsafe_get a 0 + Array.unsafe_get b 0 in
  let s1 = Array.unsafe_get a 1 + Array.unsafe_get b 1 + (s0 lsr 26) in
  let s2 = Array.unsafe_get a 2 + Array.unsafe_get b 2 + (s1 lsr 26) in
  let s3 = Array.unsafe_get a 3 + Array.unsafe_get b 3 + (s2 lsr 26) in
  let s4 = Array.unsafe_get a 4 + Array.unsafe_get b 4 + (s3 lsr 26) in
  let s5 = Array.unsafe_get a 5 + Array.unsafe_get b 5 + (s4 lsr 26) in
  let s6 = Array.unsafe_get a 6 + Array.unsafe_get b 6 + (s5 lsr 26) in
  let s7 = Array.unsafe_get a 7 + Array.unsafe_get b 7 + (s6 lsr 26) in
  let s8 = Array.unsafe_get a 8 + Array.unsafe_get b 8 + (s7 lsr 26) in
  let s9 = Array.unsafe_get a 9 + Array.unsafe_get b 9 + (s8 lsr 26) in
  let s0 = s0 land mask in
  let s1 = s1 land mask in
  let s2 = s2 land mask in
  let s3 = s3 land mask in
  let s4 = s4 land mask in
  let s5 = s5 land mask in
  let s6 = s6 land mask in
  let s7 = s7 land mask in
  let s8 = s8 land mask in
  let t0 = s0 - p0 in
  let t1 = s1 - p1 + (t0 asr 26) in
  let t2 = s2 - p2 + (t1 asr 26) in
  let t3 = s3 - p3 + (t2 asr 26) in
  let t4 = s4 - p4 + (t3 asr 26) in
  let t5 = s5 - p5 + (t4 asr 26) in
  let t6 = s6 - p6 + (t5 asr 26) in
  let t7 = s7 - p7 + (t6 asr 26) in
  let t8 = s8 - p8 + (t7 asr 26) in
  let t9 = s9 - p9 + (t8 asr 26) in
  let m = t9 asr 26 in
  Array.unsafe_set dst 0 ((s0 land m) lor (t0 land mask land lnot m));
  Array.unsafe_set dst 1 ((s1 land m) lor (t1 land mask land lnot m));
  Array.unsafe_set dst 2 ((s2 land m) lor (t2 land mask land lnot m));
  Array.unsafe_set dst 3 ((s3 land m) lor (t3 land mask land lnot m));
  Array.unsafe_set dst 4 ((s4 land m) lor (t4 land mask land lnot m));
  Array.unsafe_set dst 5 ((s5 land m) lor (t5 land mask land lnot m));
  Array.unsafe_set dst 6 ((s6 land m) lor (t6 land mask land lnot m));
  Array.unsafe_set dst 7 ((s7 land m) lor (t7 land mask land lnot m));
  Array.unsafe_set dst 8 ((s8 land m) lor (t8 land mask land lnot m));
  Array.unsafe_set dst 9 ((s9 land m) lor (t9 land mask land lnot m))

let sub (dst : t) (a : t) (b : t) =
  let d0 = Array.unsafe_get a 0 - Array.unsafe_get b 0 in
  let d1 = Array.unsafe_get a 1 - Array.unsafe_get b 1 + (d0 asr 26) in
  let d2 = Array.unsafe_get a 2 - Array.unsafe_get b 2 + (d1 asr 26) in
  let d3 = Array.unsafe_get a 3 - Array.unsafe_get b 3 + (d2 asr 26) in
  let d4 = Array.unsafe_get a 4 - Array.unsafe_get b 4 + (d3 asr 26) in
  let d5 = Array.unsafe_get a 5 - Array.unsafe_get b 5 + (d4 asr 26) in
  let d6 = Array.unsafe_get a 6 - Array.unsafe_get b 6 + (d5 asr 26) in
  let d7 = Array.unsafe_get a 7 - Array.unsafe_get b 7 + (d6 asr 26) in
  let d8 = Array.unsafe_get a 8 - Array.unsafe_get b 8 + (d7 asr 26) in
  let d9 = Array.unsafe_get a 9 - Array.unsafe_get b 9 + (d8 asr 26) in
  let m = d9 asr 26 in
  let t0 = (d0 land mask) + (p0 land m) in
  let t1 = (d1 land mask) + (p1 land m) + (t0 lsr 26) in
  let t2 = (d2 land mask) + (p2 land m) + (t1 lsr 26) in
  let t3 = (d3 land mask) + (p3 land m) + (t2 lsr 26) in
  let t4 = (d4 land mask) + (p4 land m) + (t3 lsr 26) in
  let t5 = (d5 land mask) + (p5 land m) + (t4 lsr 26) in
  let t6 = (d6 land mask) + (p6 land m) + (t5 lsr 26) in
  let t7 = (d7 land mask) + (p7 land m) + (t6 lsr 26) in
  let t8 = (d8 land mask) + (p8 land m) + (t7 lsr 26) in
  let t9 = (d9 land mask) + (p9 land m) + (t8 lsr 26) in
  Array.unsafe_set dst 0 (t0 land mask);
  Array.unsafe_set dst 1 (t1 land mask);
  Array.unsafe_set dst 2 (t2 land mask);
  Array.unsafe_set dst 3 (t3 land mask);
  Array.unsafe_set dst 4 (t4 land mask);
  Array.unsafe_set dst 5 (t5 land mask);
  Array.unsafe_set dst 6 (t6 land mask);
  Array.unsafe_set dst 7 (t7 land mask);
  Array.unsafe_set dst 8 (t8 land mask);
  Array.unsafe_set dst 9 (t9 land mask)

let neg (dst : t) (a : t) =
  let d0 = - Array.unsafe_get a 0 in
  let d1 = (d0 asr 26) - Array.unsafe_get a 1 in
  let d2 = (d1 asr 26) - Array.unsafe_get a 2 in
  let d3 = (d2 asr 26) - Array.unsafe_get a 3 in
  let d4 = (d3 asr 26) - Array.unsafe_get a 4 in
  let d5 = (d4 asr 26) - Array.unsafe_get a 5 in
  let d6 = (d5 asr 26) - Array.unsafe_get a 6 in
  let d7 = (d6 asr 26) - Array.unsafe_get a 7 in
  let d8 = (d7 asr 26) - Array.unsafe_get a 8 in
  let d9 = (d8 asr 26) - Array.unsafe_get a 9 in
  let m = d9 asr 26 in
  let t0 = (d0 land mask) + (p0 land m) in
  let t1 = (d1 land mask) + (p1 land m) + (t0 lsr 26) in
  let t2 = (d2 land mask) + (p2 land m) + (t1 lsr 26) in
  let t3 = (d3 land mask) + (p3 land m) + (t2 lsr 26) in
  let t4 = (d4 land mask) + (p4 land m) + (t3 lsr 26) in
  let t5 = (d5 land mask) + (p5 land m) + (t4 lsr 26) in
  let t6 = (d6 land mask) + (p6 land m) + (t5 lsr 26) in
  let t7 = (d7 land mask) + (p7 land m) + (t6 lsr 26) in
  let t8 = (d8 land mask) + (p8 land m) + (t7 lsr 26) in
  let t9 = (d9 land mask) + (p9 land m) + (t8 lsr 26) in
  Array.unsafe_set dst 0 (t0 land mask);
  Array.unsafe_set dst 1 (t1 land mask);
  Array.unsafe_set dst 2 (t2 land mask);
  Array.unsafe_set dst 3 (t3 land mask);
  Array.unsafe_set dst 4 (t4 land mask);
  Array.unsafe_set dst 5 (t5 land mask);
  Array.unsafe_set dst 6 (t6 land mask);
  Array.unsafe_set dst 7 (t7 land mask);
  Array.unsafe_set dst 8 (t8 land mask);
  Array.unsafe_set dst 9 (t9 land mask)

let set (dst : t) (src : t) = Array.blit src 0 dst 0 10

(* Long-lived copies (the comb tables) hold two limbs per word: five
   words at [buf.(off .. off + 4)], limb 2k in the low 26 bits of word
   k and limb 2k + 1 above it. *)
let pack (x : t) (buf : int array) off =
  for k = 0 to 4 do
    buf.(off + k) <- Array.unsafe_get x (2 * k) lor (Array.unsafe_get x ((2 * k) + 1) lsl 26)
  done

let unpack (buf : int array) off (dst : t) =
  for k = 0 to 4 do
    let w = buf.(off + k) in
    Array.unsafe_set dst (2 * k) (w land mask);
    Array.unsafe_set dst ((2 * k) + 1) (w lsr 26)
  done

let set_one (dst : t) =
  Array.fill dst 1 9 0;
  dst.(0) <- 1

(* dst := a if c = 1, b if c = 0. *)
let select (dst : t) c (a : t) (b : t) =
  let m = - c in
  for i = 0 to 9 do
    Array.unsafe_set dst i
      ((Array.unsafe_get a i land m) lor (Array.unsafe_get b i land lnot m))
  done

(* Accumulate the limbs (of a difference) before the one comparison,
   so the scan has no early exit. *)
let is_zero (x : t) =
  let acc = ref 0 in
  for i = 0 to 9 do acc := !acc lor Array.unsafe_get x i done;
  !acc = 0

let equal (x : t) (y : t) =
  let acc = ref 0 in
  for i = 0 to 9 do acc := !acc lor (Array.unsafe_get x i lxor Array.unsafe_get y i) done;
  !acc = 0

(* A value below 2^256 is below 2p: [add]'s conditional subtraction
   of p reduces it. *)
let of_bytes s =
  let x = Limbs.of_bytes s 10 in
  add x x (make ());
  x

let to_bytes (x : t) = Limbs.to_bytes x 32

(* dst := a^e for a public exponent below 2^256, by fixed 4-bit
   windows: four squarings and one multiplication per window, the
   window's power read from a table of a^0 .. a^15. *)
let pow (dst : t) (a : t) (e : t) =
  let tbl = Array.init 16 (fun _ -> make ()) in
  set_one tbl.(0);
  for d = 1 to 15 do mul tbl.(d) tbl.(d - 1) a done;
  let acc = make () in
  set_one acc;
  for w = 63 downto 0 do
    for _ = 1 to 4 do sqr acc acc done;
    mul acc acc tbl.(Limbs.bits e (4 * w) 4)
  done;
  set dst acc

let inv dst a = pow dst a inv_e

let sqrt dst a =
  let y = make () in
  pow y a sqrt_e;
  let yy = make () in
  sqr yy y;
  let root = equal yy a in
  set dst y;
  root
