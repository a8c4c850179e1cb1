(* HMAC-SHA256 (RFC 2104). *)

let block_size = 64

let sha256 ~key msg =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad c =
    let b = Bytes.make block_size c in
    String.iteri (fun i k -> Bytes.set b i (Char.chr (Char.code k lxor Char.code c))) key;
    Bytes.unsafe_to_string b
  in
  let ipad = pad '\x36' and opad = pad '\x5c' in
  Sha256.digest_list [ opad; Sha256.digest_list [ ipad; msg ] ]
