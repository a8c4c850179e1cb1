(* Schnorr signature tests. *)

module Schnorr = Dd_sig.Schnorr
module Group_ctx = Dd_group.Group_ctx
module Drbg = Dd_crypto.Drbg
module Nat = Dd_bignum.Nat

let gctx = Group_ctx.default ()
let rng () = Drbg.create ~seed:"sig-tests"

let test_sign_verify () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let s = Schnorr.sign gctx rng ~sk ~pk "hello" in
  Alcotest.(check bool) "accepts" true (Schnorr.verify gctx ~pk "hello" s)

let test_wrong_message_rejected () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let s = Schnorr.sign gctx rng ~sk ~pk "hello" in
  Alcotest.(check bool) "rejects" false (Schnorr.verify gctx ~pk "hellO" s)

let test_wrong_key_rejected () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let _, pk2 = Schnorr.keygen gctx rng in
  let s = Schnorr.sign gctx rng ~sk ~pk "msg" in
  Alcotest.(check bool) "rejects other pk" false (Schnorr.verify gctx ~pk:pk2 "msg" s)

let test_signature_randomized () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let s1 = Schnorr.sign gctx rng ~sk ~pk "m" in
  let s2 = Schnorr.sign gctx rng ~sk ~pk "m" in
  Alcotest.(check bool) "fresh nonces" false
    (String.equal (Schnorr.encode s1) (Schnorr.encode s2));
  Alcotest.(check bool) "both verify" true
    (Schnorr.verify gctx ~pk "m" s1 && Schnorr.verify gctx ~pk "m" s2)

let test_codec () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let s = Schnorr.sign gctx rng ~sk ~pk "codec" in
  (match Schnorr.decode (Schnorr.encode s) with
   | Some s' -> Alcotest.(check bool) "roundtrip verifies" true (Schnorr.verify gctx ~pk "codec" s')
   | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage rejected" true (Schnorr.decode "xx" = None);
  (match Schnorr.decode_pk (Schnorr.encode_pk pk) with
   | Some pk' -> Alcotest.(check bool) "pk roundtrip" true
                   (Dd_group.Curve.equal pk pk')
   | None -> Alcotest.fail "pk decode failed")

let test_tampered_signature_rejected () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let s = Schnorr.sign gctx rng ~sk ~pk "m" in
  let enc = Bytes.of_string (Schnorr.encode s) in
  Bytes.set enc 5 (Char.chr (Char.code (Bytes.get enc 5) lxor 1));
  match Schnorr.decode (Bytes.to_string enc) with
  | Some s' -> Alcotest.(check bool) "tampered rejected" false (Schnorr.verify gctx ~pk "m" s')
  | None -> ()

let test_verify_with_table () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen gctx rng in
  let pk_table = Schnorr.make_pk_table pk in
  let s = Schnorr.sign gctx rng ~sk ~pk "tabled" in
  Alcotest.(check bool) "accepts" true
    (Schnorr.verify_with_table gctx ~pk ~pk_table "tabled" s);
  Alcotest.(check bool) "agrees with plain verify" true
    (Schnorr.verify gctx ~pk "tabled" s
     = Schnorr.verify_with_table gctx ~pk ~pk_table "tabled" s);
  Alcotest.(check bool) "wrong message rejected" false
    (Schnorr.verify_with_table gctx ~pk ~pk_table "tampered" s);
  let _, pk2 = Schnorr.keygen gctx rng in
  let s2 = Schnorr.sign gctx rng ~sk ~pk "other" in
  Alcotest.(check bool) "mismatched table rejected" false
    (Schnorr.verify_with_table gctx ~pk:pk2
       ~pk_table:(Schnorr.make_pk_table pk2) "other" s2)

(* --- batch verification --------------------------------------------------- *)

let make_batch ?(seed = "batch") n =
  let rng = Drbg.create ~seed in
  Array.init n (fun i ->
      let sk, pk = Schnorr.keygen gctx rng in
      let msg = Printf.sprintf "batch message %d" i in
      (pk, msg, Schnorr.sign gctx rng ~sk ~pk msg))

let precompute items = Array.map (fun (pk, _, _) -> Schnorr.precompute_pk pk) items

let test_batch_accepts_valid () =
  let rng = rng () in
  Alcotest.(check bool) "empty batch" true (Schnorr.verify_batch gctx rng [||]);
  Alcotest.(check bool) "singleton" true (Schnorr.verify_batch gctx rng (make_batch 1));
  let items = make_batch 9 in
  Alcotest.(check bool) "9 valid" true (Schnorr.verify_batch gctx rng items);
  Alcotest.(check bool) "9 valid with precomputed keys" true
    (Schnorr.verify_batch ~pre:(precompute items) gctx rng items);
  Alcotest.(check (list int)) "find on a clean batch" []
    (Schnorr.verify_batch_find gctx rng items)

let test_batch_rejects_forged () =
  (* one forged item among n: cover index 0 (the pinned weight), a
     middle index, and the last; bisection must name exactly it *)
  List.iter
    (fun j ->
       let items = make_batch ~seed:(Printf.sprintf "forge%d" j) 7 in
       let pk, _, s = items.(j) in
       items.(j) <- (pk, "forged", s);
       let rng = rng () in
       Alcotest.(check bool) (Printf.sprintf "forged %d rejected" j) false
         (Schnorr.verify_batch gctx rng items);
       Alcotest.(check bool) (Printf.sprintf "forged %d rejected with pre" j) false
         (Schnorr.verify_batch ~pre:(precompute items) gctx rng items);
       Alcotest.(check (list int)) (Printf.sprintf "bisection names %d" j) [ j ]
         (Schnorr.verify_batch_find gctx rng items))
    [ 0; 3; 6 ]

let test_batch_find_multiple () =
  let items = make_batch ~seed:"multi" 8 in
  List.iter (fun j -> let pk, _, s = items.(j) in items.(j) <- (pk, "bad", s)) [ 2; 5 ];
  Alcotest.(check (list int)) "both forged indices named" [ 2; 5 ]
    (Schnorr.verify_batch_find gctx (rng ()) items)

let test_batch_pre_length_mismatch () =
  let items = make_batch 3 in
  let pre = precompute (make_batch 2) in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Schnorr.verify_batch: pre/items length mismatch")
    (fun () -> ignore (Schnorr.verify_batch ~pre gctx (rng ()) items))

let prop_sign_verify =
  QCheck.Test.make ~name:"sign/verify completeness" ~count:15
    QCheck.(string_of_size (QCheck.Gen.int_range 0 100))
    (fun msg ->
       let rng = Drbg.create ~seed:("sv" ^ msg) in
       let sk, pk = Schnorr.keygen gctx rng in
       let s = Schnorr.sign gctx rng ~sk ~pk msg in
       Schnorr.verify gctx ~pk msg s)

let () =
  Alcotest.run "sig"
    [ ("schnorr",
       [ Alcotest.test_case "sign/verify" `Quick test_sign_verify;
         Alcotest.test_case "wrong message" `Quick test_wrong_message_rejected;
         Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
         Alcotest.test_case "randomized" `Quick test_signature_randomized;
         Alcotest.test_case "codec" `Quick test_codec;
         Alcotest.test_case "tampered" `Quick test_tampered_signature_rejected;
         Alcotest.test_case "verify with pk table" `Quick test_verify_with_table;
         QCheck_alcotest.to_alcotest prop_sign_verify ]);
      ("batch",
       [ Alcotest.test_case "accepts valid batches" `Quick test_batch_accepts_valid;
         Alcotest.test_case "rejects one forged item" `Quick test_batch_rejects_forged;
         Alcotest.test_case "localizes several" `Quick test_batch_find_multiple;
         Alcotest.test_case "pre length mismatch" `Quick test_batch_pre_length_mismatch ]) ]
