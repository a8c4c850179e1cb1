(* FIPS 180-4 SHA-256, pure OCaml over 32-bit words in native ints. *)

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

(* Words are native ints holding 32-bit values: sums are masked back
   to 32 bits, and nothing is boxed. *)
type ctx = {
  h : int array;                 (* 8 chaining words *)
  buf : Bytes.t;                 (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;           (* total bytes processed *)
}

let init () = {
  h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
  buf = Bytes.create 64;
  buf_len = 0;
  total = 0;
}

let mask = 0xffffffff
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Message-schedule scratch. One 64-word array per domain (not per
   call) keeps the hot path allocation-free while letting every domain
   hash concurrently. *)
let w_key = Domain.DLS.new_key (fun () -> Array.make 64 0)

let compress ctx block off =
  let w = Domain.DLS.get w_key in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    let x = w.(i-15) and y = w.(i-2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(i) <- (w.(i-16) + s0 + w.(i-7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + k.(i) + w.(i) in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = s0 + maj in
    hh := !g; g := !f; f := !e; e := (!d + t1) land mask;
    d := !c; c := !b; b := !a; a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx (s : Bytes.t) pos len =
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = if !len < need then !len else need in
    Bytes.blit s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take; len := !len - take;
    if ctx.buf_len = 64 then begin compress ctx ctx.buf 0; ctx.buf_len <- 0 end
  end;
  while !len >= 64 do
    compress ctx s !pos;
    pos := !pos + 64; len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit s !pos ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  let total_bits = ctx.total * 8 in
  let pad_len =
    let r = (ctx.total + 1 + 8) mod 64 in
    1 + (if r = 0 then 0 else 64 - r) + 8
  in
  let pad = Bytes.make pad_len '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len - 1 - i) (Char.chr ((total_bits lsr (8 * i)) land 0xff))
  done;
  feed_bytes ctx pad 0 pad_len;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b
