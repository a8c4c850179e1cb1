(* Fixed-width scalars modulo secp256k1's group order
   n = 2^256 - c, c = 0x14551231950b75fc4402da1732fc9bebf (129 bits).

   A scalar is ten 26-bit limbs, little-endian, always fully reduced
   (below n, every limb below 2^26), in an array that no caller writes:
   every operation returns a fresh one. So structural equality is
   numerical equality, and a scalar kept in a record stays what it was.

   [add], [sub], [neg] and [mul] run the same limb loops, carry chains
   and mask selects for every input, and allocate the same words.
   A product's twenty limbs come down by folds at 2^260 = 16c (mod n):
   each adds the limbs above 2^260, times 16c's six limbs, onto the low
   ten. Four folds of fixed length take a value below 2^512 under 2^386,
   2^261, 2^260 + 2^133 and then 2^260 (bounds at [reduce]); a last
   fold at 2^256 = c leaves it below 2^256 + 2^133 < 2n, and one
   conditional subtraction of n, by a mask select, finishes it. *)

type t = int array

let mask = Limbs.mask

let n = Limbs.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141" 10
let c = Limbs.of_hex "014551231950b75fc4402da1732fc9bebf" 5   (* 2^256 mod n *)
let d = Limbs.of_hex "14551231950b75fc4402da1732fc9bebf0" 6   (* 2^260 mod n *)

let of_int v =
  if v < 0 || v >= 1 lsl 52 then invalid_arg "Sc.of_int: out of range";
  [| v land mask; v lsr 26; 0; 0; 0; 0; 0; 0; 0; 0 |]

let zero = of_int 0
let one = of_int 1

(* [s] (limbs below 2^26, value below 2n) less n if it is at least n:
   the subtraction's final borrow is the mask that keeps [s]. *)
let csub_n (s : int array) =
  let t = Array.make 10 0 and b = ref 0 in
  for i = 0 to 9 do
    let v = s.(i) - n.(i) + !b in
    t.(i) <- v land mask;
    b := v asr 26
  done;
  let m = !b in
  for i = 0 to 9 do t.(i) <- (s.(i) land m) lor (t.(i) land lnot m) done;
  t

let add (a : t) (b : t) =
  let s = Array.make 10 0 and carry = ref 0 in
  for i = 0 to 9 do
    let v = a.(i) + b.(i) + !carry in
    s.(i) <- v land mask;
    carry := v lsr 26
  done;
  csub_n s

(* a - b, plus n under the mask of the final borrow; the carry out of
   the top limb is the 2^260 the borrow took. *)
let sub (a : t) (b : t) =
  let t = Array.make 10 0 and br = ref 0 in
  for i = 0 to 9 do
    let v = a.(i) - b.(i) + !br in
    t.(i) <- v land mask;
    br := v asr 26
  done;
  let m = !br and carry = ref 0 in
  for i = 0 to 9 do
    let v = t.(i) + (n.(i) land m) + !carry in
    t.(i) <- v land mask;
    carry := v lsr 26
  done;
  t

let neg a = sub zero a

(* x.(0 .. out-1) := x.(0 .. 9) + x.(10 .. m-1) * d, in place: column
   k reads high limbs from k + 5 up, which no column has written yet.
   The caller's bound on the value makes the carry out of the last
   column zero. *)
let fold (x : int array) m out =
  let carry = ref 0 in
  for k = 0 to out - 1 do
    let v = ref (!carry + if k < 10 then x.(k) else 0) in
    for j = Int.max 0 (k - (m - 11)) to Int.min 5 k do
      v := !v + (Array.unsafe_get x (10 + k - j) * Array.unsafe_get d j)
    done;
    x.(k) <- !v land mask;
    carry := !v lsr 26
  done

(* A value below 2^512 in twenty limbs, reduced mod n. A fold of high
   part H under 2^h gives a value below 2^260 + 2^(h + 133): from 2^512
   (h = 252) to under 2^386, then 2^261 (h = 126), then H <= 1, under
   2^260 + 2^133; a last H = 1 leaves a low part below 2^133, so the
   fourth fold ends below 2^260. *)
let reduce (x : int array) =
  fold x 20 15;
  fold x 15 11;
  fold x 11 11;
  fold x 11 11;
  (* 2^256 = c: the four bits above 256 times c *)
  let h = x.(9) lsr 22 and carry = ref 0 in
  x.(9) <- x.(9) land 0x3fffff;
  for k = 0 to 9 do
    let v = x.(k) + (if k < 5 then h * c.(k) else 0) + !carry in
    x.(k) <- v land mask;
    carry := v lsr 26
  done;
  csub_n x

(* The twenty carried limbs of a * b (columns of ten 52-bit products
   stay below 2^56). *)
let product (a : t) (b : t) =
  let x = Array.make 20 0 and carry = ref 0 in
  for k = 0 to 18 do
    let v = ref !carry in
    for i = Int.max 0 (k - 9) to Int.min 9 k do
      v := !v + (Array.unsafe_get a i * Array.unsafe_get b (k - i))
    done;
    x.(k) <- !v land mask;
    carry := !v lsr 26
  done;
  x.(19) <- !carry;
  x

let mul a b = reduce (product a b)

let bits (x : t) i len = Limbs.bits x i len

let mul_shift a b s =
  let x = product a b in
  let r = Array.init 10 (fun k -> Limbs.bits x (s + (26 * k)) 26) in
  let carry = ref (Limbs.bits x (s - 1) 1) in
  for k = 0 to 9 do
    let v = r.(k) + !carry in
    r.(k) <- v land mask;
    carry := v lsr 26
  done;
  r

let is_zero (x : t) =
  let acc = ref 0 in
  for i = 0 to 9 do acc := !acc lor x.(i) done;
  !acc = 0

let equal (x : t) (y : t) =
  let acc = ref 0 in
  for i = 0 to 9 do acc := !acc lor (x.(i) lxor y.(i)) done;
  !acc = 0

let bit_length (x : t) =
  let rec top i =
    if i < 0 then 0
    else if x.(i) = 0 then top (i - 1)
    else
      let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
      (26 * i) + width x.(i)
  in
  top 9

let to_int (x : t) =
  let high = ref 0 in
  for i = 2 to 9 do high := !high lor x.(i) done;
  if !high <> 0 then invalid_arg "Sc.to_int: out of range";
  x.(0) lor (x.(1) lsl 26)

let of_bytes s =
  if String.length s > 32 then None
  else begin
    let x = Limbs.of_bytes s 10 in
    (* x < n iff x - n borrows *)
    let b = ref 0 in
    for i = 0 to 9 do b := (x.(i) - n.(i) + !b) asr 26 done;
    if !b < 0 then Some x else None
  end

let of_bytes_mod s =
  if String.length s > 64 then invalid_arg "Sc.of_bytes_mod: more than 64 bytes";
  reduce (Limbs.of_bytes s 20)

let to_bytes (x : t) = Limbs.to_bytes x 32

let to_bytes_trimmed x =
  let s = to_bytes x in
  let rec lead i = if i < 31 && s.[i] = '\000' then lead (i + 1) else i in
  let i = lead 0 in
  String.sub s i (32 - i)

(* x^(n-2) = x^-1 by square-and-multiply over the public exponent. *)
let fermat_inv x =
  let e = sub n (of_int 2) in
  let acc = ref one in
  for i = 255 downto 0 do
    acc := mul !acc !acc;
    if bits e i 1 = 1 then acc := mul !acc x
  done;
  !acc

(* v^-1 for 0 < v < 2^32 as (1 + k n) / v, where k = -(n mod v)^-1
   mod v makes the division exact and the quotient below n. *)
let inv_small v =
  let r = ref 0 in
  for i = 9 downto 0 do r := ((!r lsl 26) lor n.(i)) mod v done;
  (* (n mod v)^-1 mod v by extended Euclid, tracking r's coefficient *)
  let rec euclid r0 r1 s0 s1 =
    if r1 = 0 then s0 else euclid r1 (r0 mod r1) s1 (s0 - (r0 / r1 * s1))
  in
  let inv_r = ((euclid v !r 0 1 mod v) + v) mod v in
  let k = (v - inv_r) mod v in
  let w = Array.make 12 0 and carry = ref 1 in
  for i = 0 to 11 do
    let x = (if i < 10 then k * n.(i) else 0) + !carry in
    w.(i) <- x land mask;
    carry := x lsr 26
  done;
  let q = Array.make 10 0 and rem = ref 0 in
  for i = 11 downto 0 do
    let cur = (!rem lsl 26) lor w.(i) in
    if i < 10 then q.(i) <- cur / v;
    rem := cur mod v
  done;
  q

let inv_vartime x =
  if is_zero x then raise Division_by_zero;
  let small v = if bit_length v <= 32 then Some (v.(0) lor (v.(1) lsl 26)) else None in
  match small x with
  | Some v -> inv_small v
  | None ->
    (match small (neg x) with
     | Some v -> neg (inv_small v)
     | None -> fermat_inv x)
