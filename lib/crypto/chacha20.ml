(* ChaCha20 block function (RFC 8439), used as the core of the
   deterministic DRBG that replaces the JVM's SecureRandom in this
   reproduction (a deterministic generator keeps every test and
   simulation replayable). *)

(* Words are native ints holding 32-bit values, so no word is boxed. *)
let mask = 0xffffffff
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let quarter st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask; st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask; st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask; st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask; st.(b) <- rotl (st.(b) lxor st.(c)) 7

let word32_le s off = Int32.to_int (String.get_int32_le s off) land mask

(* [block ~key ~nonce counter] is the 64-byte keystream block.
   [key] is 32 bytes, [nonce] 12 bytes. *)
let block ~key ~nonce counter =
  if String.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Chacha20.block: nonce must be 12 bytes";
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865; st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32; st.(3) <- 0x6b206574;
  for i = 0 to 7 do st.(4 + i) <- word32_le key (4 * i) done;
  st.(12) <- counter land mask;
  for i = 0 to 2 do st.(13 + i) <- word32_le nonce (4 * i) done;
  let work = Array.copy st in
  for _ = 1 to 10 do
    quarter work 0 4 8 12; quarter work 1 5 9 13;
    quarter work 2 6 10 14; quarter work 3 7 11 15;
    quarter work 0 5 10 15; quarter work 1 6 11 12;
    quarter work 2 7 8 13; quarter work 3 4 9 14
  done;
  let out = Bytes.create 64 in
  for i = 0 to 15 do
    Bytes.set_int32_le out (4 * i) (Int32.of_int (work.(i) + st.(i)))
  done;
  Bytes.unsafe_to_string out
