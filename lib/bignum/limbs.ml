(* Byte codecs shared by [Fe] and [Sc]: both hold a value as 26-bit
   limbs, least significant first, in a plain [int array]. The loops run
   over the byte or limb count, never over a value. *)

let mask = (1 lsl 26) - 1

(* The big-endian bytes [s] as [nl] limbs; bits past 26 nl are dropped,
   so [s] must fit. *)
let of_bytes s nl =
  let x = Array.make nl 0 and len = String.length s in
  for i = 0 to len - 1 do
    let v = Char.code (String.unsafe_get s (len - 1 - i)) and bit = 8 * i in
    let q = bit / 26 and r = bit mod 26 in
    if q < nl then x.(q) <- x.(q) lor ((v lsl r) land mask);
    if r > 18 && q + 1 < nl then x.(q + 1) <- x.(q + 1) lor (v lsr (26 - r))
  done;
  x

(* The low [len] bytes of [x]'s value, big-endian. *)
let to_bytes (x : int array) len =
  let nl = Array.length x in
  let b = Bytes.create len in
  for j = 0 to len - 1 do
    let bit = 8 * (len - 1 - j) in
    let q = bit / 26 and r = bit mod 26 in
    let lo = if q < nl then x.(q) lsr r else 0 in
    let hi = if r > 18 && q + 1 < nl then x.(q + 1) lsl (26 - r) else 0 in
    Bytes.unsafe_set b j (Char.unsafe_chr ((lo lor hi) land 0xff))
  done;
  Bytes.unsafe_to_string b

(* A constant from an even-length hex string. *)
let of_hex h nl =
  of_bytes (String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))) nl

(* Bits i .. i + len - 1 (len <= 26) of [x]; past the top, zeros. *)
let bits (x : int array) i len =
  let nl = Array.length x and q = i / 26 and r = i mod 26 in
  let lo = if q < nl then x.(q) lsr r else 0 in
  let hi = if r + len > 26 && q + 1 < nl then x.(q + 1) lsl (26 - r) else 0 in
  (lo lor hi) land ((1 lsl len) - 1)
