(* Helpers the test executables share. *)

(* Hex of a natural's big-endian bytes, for messages and known answers. *)
let nat_hex ?len a = Dd_crypto.Sha256.hex_of_string (Dd_bignum.Nat.to_bytes_be ?len a)

(* One payload framed as it goes on the wire. *)
let frame payload =
  let buf = Buffer.create (String.length payload + 4) in
  Dd_serve.Frame.encode_into buf payload;
  Buffer.contents buf
