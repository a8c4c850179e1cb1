(* Deterministic random byte generator built on the ChaCha20 keystream.
   Seeded from an arbitrary string via SHA-256; each generator is an
   independent, replayable stream. This stands in for SecureRandom /
   /dev/urandom so that elections, tests, and simulations are exactly
   reproducible from their seeds. *)

type t = {
  key : string;                (* 32 bytes *)
  mutable counter : int;
  mutable nonce_hi : int;      (* extends the 32-bit block counter *)
  mutable buf : string;
  mutable pos : int;
}

let create ~seed =
  { key = Sha256.digest seed; counter = 0; nonce_hi = 0; buf = ""; pos = 0 }

let refill t =
  let nonce =
    String.init 12 (fun i ->
        if i < 8 then Char.chr ((t.nonce_hi lsr (8 * i)) land 0xff) else '\000')
  in
  t.buf <- Chacha20.block ~key:t.key ~nonce t.counter;
  t.pos <- 0;
  t.counter <- t.counter + 1;
  if t.counter = 0x40000000 then begin t.counter <- 0; t.nonce_hi <- t.nonce_hi + 1 end

let bytes t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if t.pos >= String.length t.buf then refill t;
    let take = min (n - !filled) (String.length t.buf - t.pos) in
    Bytes.blit_string t.buf t.pos out !filled take;
    t.pos <- t.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let byte t = Char.code (bytes t 1).[0]

(* Uniform int in [0, bound) by rejection sampling on 62-bit chunks. *)
let int t bound =
  if bound <= 0 then invalid_arg "Drbg.int: bound must be positive";
  let rec draw () =
    let s = bytes t 8 in
    let v = ref 0 in
    String.iter (fun c -> v := (!v lsl 8) lor Char.code c) s;
    let v = !v land max_int in
    let limit = max_int - (max_int mod bound) in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let bool t = byte t land 1 = 1

let fork t ~label = create ~seed:(bytes t 32 ^ label)
