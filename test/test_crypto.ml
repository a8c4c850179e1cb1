(* Known-answer tests (FIPS 180-4, FIPS 197, RFC 8439, RFC 4231) and
   properties for the from-scratch crypto substrate. *)

module Sha256 = Dd_crypto.Sha256
module Hmac = Dd_crypto.Hmac
module Aes128 = Dd_crypto.Aes128
module Chacha20 = Dd_crypto.Chacha20
module Drbg = Dd_crypto.Drbg
module Ct = Dd_crypto.Ct

let hex = Sha256.hex_of_string

let of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* --- SHA-256 ----------------------------------------------------------- *)

let test_sha256_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Sha256.digest ""));
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Sha256.digest "abc"));
  Alcotest.(check string) "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.digest (String.make 1_000_000 'a')))

let test_sha256_incremental () =
  (* feeding in chunks must equal the one-shot digest, across chunk
     sizes that exercise partial-block buffering *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let expected = Sha256.digest msg in
  List.iter
    (fun chunk ->
       let parts =
         List.init ((String.length msg + chunk - 1) / chunk) (fun k ->
             String.sub msg (k * chunk) (min chunk (String.length msg - (k * chunk))))
       in
       Alcotest.(check string) (Printf.sprintf "chunk %d" chunk) (hex expected)
         (hex (Sha256.digest_list parts)))
    [ 1; 3; 63; 64; 65; 128; 1000 ]

let test_sha256_length_boundary () =
  (* padding boundary cases: 55, 56, 64 byte messages *)
  List.iter
    (fun n ->
       let m = String.make n 'x' in
       let k = n / 2 in
       Alcotest.(check string) (Printf.sprintf "len %d" n)
         (hex (Sha256.digest m))
         (hex (Sha256.digest_list [ String.sub m 0 k; String.sub m k (n - k) ])))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120 ]

(* --- HMAC -------------------------------------------------------------- *)

let test_hmac_vectors () =
  (* RFC 4231 test cases 1, 2 and 3 *)
  Alcotest.(check string) "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There"));
  Alcotest.(check string) "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?"));
  Alcotest.(check string) "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')))

let test_hmac_long_key () =
  (* keys longer than the block size are hashed first (RFC 4231 tc6) *)
  Alcotest.(check string) "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex (Hmac.sha256 ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"))

(* --- AES --------------------------------------------------------------- *)

let test_aes_fips197 () =
  let key = of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = of_hex "00112233445566778899aabbccddeeff" in
  let w = Aes128.expand_key key in
  Alcotest.(check string) "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (hex (Aes128.encrypt_block w pt))

let test_aes_sp800_38a () =
  (* NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first block *)
  let key = of_hex "2b7e151628aed2a6abf7158809cf4f3c" in
  let iv = of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = of_hex "6bc1bee22e409f96e93d7e117393172a" in
  let ct = Aes128.cbc_encrypt ~key ~iv pt in
  Alcotest.(check string) "first CBC block" "7649abac8119b246cee98e9b12e9197d"
    (hex (String.sub ct 0 16))

let test_aes_cbc_roundtrip () =
  let key = "0123456789abcdef" and iv = "fedcba9876543210" in
  List.iter
    (fun len ->
       let msg = String.init len (fun i -> Char.chr ((i * 7) mod 256)) in
       let ct = Aes128.cbc_encrypt ~key ~iv msg in
       Alcotest.(check string) (Printf.sprintf "len %d" len) (hex msg)
         (hex (Aes128.cbc_decrypt ~key ~iv ct)))
    [ 0; 1; 15; 16; 17; 31; 32; 100 ]

let test_aes_cbc_bad_padding () =
  let key = "0123456789abcdef" and iv = "fedcba9876543210" in
  Alcotest.check_raises "truncated" (Invalid_argument "Aes128.cbc_decrypt: bad length")
    (fun () -> ignore (Aes128.cbc_decrypt ~key ~iv "short"));
  (* corrupt the last byte of a valid ciphertext: padding check must
     (almost certainly) reject *)
  let ct = Bytes.of_string (Aes128.cbc_encrypt ~key ~iv "hello world") in
  Bytes.set ct (Bytes.length ct - 1) (Char.chr (Char.code (Bytes.get ct (Bytes.length ct - 1)) lxor 1));
  match Aes128.cbc_decrypt ~key ~iv (Bytes.to_string ct) with
  | _ -> ()   (* 1/16-ish chance the padding still parses; not a failure *)
  | exception Invalid_argument _ -> ()

let test_aes_bad_key_len () =
  Alcotest.check_raises "key length" (Invalid_argument "Aes128.expand_key: key must be 16 bytes")
    (fun () -> ignore (Aes128.expand_key "short"))

(* --- ChaCha20 ---------------------------------------------------------- *)

let test_chacha_rfc8439 () =
  let key = String.init 32 Char.chr in
  let nonce = of_hex "000000090000004a00000000" in
  let block = Chacha20.block ~key ~nonce 1 in
  Alcotest.(check string) "rfc8439 2.3.2"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (hex block)

let test_chacha_bad_args () =
  Alcotest.check_raises "key size" (Invalid_argument "Chacha20.block: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:"x" ~nonce:(String.make 12 'n') 0));
  Alcotest.check_raises "nonce size" (Invalid_argument "Chacha20.block: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.block ~key:(String.make 32 'k') ~nonce:"n" 0))

(* --- DRBG -------------------------------------------------------------- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same stream" (hex (Drbg.bytes a 100)) (hex (Drbg.bytes b 100));
  let c = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seed, different stream" false
    (Drbg.bytes c 100 = Drbg.bytes (Drbg.create ~seed:"seed") 100)

let test_drbg_fork_independent () =
  let parent = Drbg.create ~seed:"p" in
  let child = Drbg.fork parent ~label:"c" in
  let child_bytes = Drbg.bytes child 32 in
  (* replay: forking at the same point with same label gives same child *)
  let parent2 = Drbg.create ~seed:"p" in
  let child2 = Drbg.fork parent2 ~label:"c" in
  Alcotest.(check string) "fork deterministic" (hex child_bytes) (hex (Drbg.bytes child2 32));
  let other = Drbg.fork (Drbg.create ~seed:"p") ~label:"d" in
  Alcotest.(check bool) "label separates" false (Drbg.bytes other 32 = child_bytes)

let test_drbg_int_bounds () =
  let rng = Drbg.create ~seed:"bounds" in
  for _ = 1 to 1000 do
    let v = Drbg.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Drbg.int: bound must be positive")
    (fun () -> ignore (Drbg.int rng 0))

let test_drbg_int_uniformish () =
  let rng = Drbg.create ~seed:"uniform" in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let v = Drbg.int rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
       if c < 800 || c > 1200 then
         Alcotest.failf "suspiciously non-uniform bucket: %d" c)
    counts

(* --- constant-time compare --------------------------------------------- *)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Ct.equal "abc" "abc");
  Alcotest.(check bool) "diff len" false (Ct.equal "abc" "abcd");
  Alcotest.(check bool) "diff content" false (Ct.equal "abc" "abd");
  Alcotest.(check bool) "empty" true (Ct.equal "" "")

let prop_ct_matches_equal =
  QCheck.Test.make ~name:"Ct.equal = String.equal" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 20)) (string_of_size (QCheck.Gen.int_range 0 20)))
    (fun (a, b) -> Ct.equal a b = String.equal a b)

let prop_ct_reflexive =
  QCheck.Test.make ~name:"Ct.equal reflexive" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun a -> Ct.equal a a)

let prop_ct_symmetric =
  QCheck.Test.make ~name:"Ct.equal symmetric" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 32)) (string_of_size (QCheck.Gen.int_range 0 32)))
    (fun (a, b) -> Ct.equal a b = Ct.equal b a)

(* flipping any single byte must be detected, wherever it sits *)
let prop_ct_detects_flip =
  QCheck.Test.make ~name:"Ct.equal detects single-byte flip" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 64)) small_nat)
    (fun (a, i) ->
       let i = i mod String.length a in
       let b = Bytes.of_string a in
       Bytes.set b i (Char.chr (Char.code a.[i] lxor 0x01));
       not (Ct.equal a (Bytes.to_string b)))

(* a strict prefix is never equal: length mismatch short-circuits *)
let prop_ct_prefix_not_equal =
  QCheck.Test.make ~name:"Ct.equal rejects strict prefixes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 1 64))
    (fun a -> not (Ct.equal a (String.sub a 0 (String.length a - 1))))

let prop_aes_roundtrip =
  QCheck.Test.make ~name:"cbc decrypt . encrypt = id" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun msg ->
       let key = "0123456789abcdef" and iv = "fedcba9876543210" in
       String.equal msg (Aes128.cbc_decrypt ~key ~iv (Aes128.cbc_encrypt ~key ~iv msg)))

let () =
  Alcotest.run "crypto"
    [ ("sha256",
       [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
         Alcotest.test_case "incremental" `Quick test_sha256_incremental;
         Alcotest.test_case "padding boundaries" `Quick test_sha256_length_boundary ]);
      ("hmac",
       [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors;
         Alcotest.test_case "long key" `Quick test_hmac_long_key ]);
      ("aes128",
       [ Alcotest.test_case "FIPS 197 block" `Quick test_aes_fips197;
         Alcotest.test_case "SP 800-38A CBC" `Quick test_aes_sp800_38a;
         Alcotest.test_case "CBC roundtrip" `Quick test_aes_cbc_roundtrip;
         Alcotest.test_case "CBC bad input" `Quick test_aes_cbc_bad_padding;
         Alcotest.test_case "bad key length" `Quick test_aes_bad_key_len ]);
      ("chacha20",
       [ Alcotest.test_case "RFC 8439 block" `Quick test_chacha_rfc8439;
         Alcotest.test_case "argument validation" `Quick test_chacha_bad_args ]);
      ("drbg",
       [ Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
         Alcotest.test_case "fork independence" `Quick test_drbg_fork_independent;
         Alcotest.test_case "int bounds" `Quick test_drbg_int_bounds;
         Alcotest.test_case "int roughly uniform" `Quick test_drbg_int_uniformish ]);
      ("ct",
       (Alcotest.test_case "equal" `Quick test_ct_equal)
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_ct_matches_equal; prop_ct_reflexive; prop_ct_symmetric;
              prop_ct_detects_flip; prop_ct_prefix_not_equal; prop_aes_roundtrip ]) ]
