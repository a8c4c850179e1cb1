(* Schnorr signature tests. *)

module Schnorr = Dd_sig.Schnorr
module Group_ctx = Dd_group.Group_ctx
module Drbg = Dd_crypto.Drbg
module Nat = Dd_bignum.Nat
module Curve = Dd_group.Curve

let rng () = Drbg.create ~seed:"sig-tests"

let test_sign_verify () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let s = Schnorr.sign rng ~sk ~pk "hello" in
  Alcotest.(check bool) "accepts" true (Schnorr.verify ~pk "hello" s)

let test_wrong_message_rejected () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let s = Schnorr.sign rng ~sk ~pk "hello" in
  Alcotest.(check bool) "rejects" false (Schnorr.verify ~pk "hellO" s)

let test_wrong_key_rejected () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let _, pk2 = Schnorr.keygen rng in
  let s = Schnorr.sign rng ~sk ~pk "msg" in
  Alcotest.(check bool) "rejects other pk" false (Schnorr.verify ~pk:pk2 "msg" s)

let test_signature_randomized () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let s1 = Schnorr.sign rng ~sk ~pk "m" in
  let s2 = Schnorr.sign rng ~sk ~pk "m" in
  Alcotest.(check bool) "fresh nonces" false
    (String.equal (Schnorr.encode s1) (Schnorr.encode s2));
  Alcotest.(check bool) "both verify" true
    (Schnorr.verify ~pk "m" s1 && Schnorr.verify ~pk "m" s2)

let test_codec () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let s = Schnorr.sign rng ~sk ~pk "codec" in
  (match Schnorr.decode (Schnorr.encode s) with
   | Some s' -> Alcotest.(check bool) "roundtrip verifies" true (Schnorr.verify ~pk "codec" s')
   | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage rejected" true (Schnorr.decode "xx" = None);
  (match Schnorr.decode_pk (Schnorr.encode_pk pk) with
   | Some pk' -> Alcotest.(check bool) "pk roundtrip" true
                   (Dd_group.Curve.equal pk pk')
   | None -> Alcotest.fail "pk decode failed")

let test_tampered_signature_rejected () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let s = Schnorr.sign rng ~sk ~pk "m" in
  let enc = Bytes.of_string (Schnorr.encode s) in
  Bytes.set enc 5 (Char.chr (Char.code (Bytes.get enc 5) lxor 1));
  match Schnorr.decode (Bytes.to_string enc) with
  | Some s' -> Alcotest.(check bool) "tampered rejected" false (Schnorr.verify ~pk "m" s')
  | None -> ()

let test_verify_with_table () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let pk_table = Schnorr.make_pk_table pk in
  let s = Schnorr.sign rng ~sk ~pk "tabled" in
  Alcotest.(check bool) "accepts" true
    (Schnorr.verify_with_table ~pk ~pk_table "tabled" s);
  Alcotest.(check bool) "agrees with plain verify" true
    (Schnorr.verify ~pk "tabled" s
     = Schnorr.verify_with_table ~pk ~pk_table "tabled" s);
  Alcotest.(check bool) "wrong message rejected" false
    (Schnorr.verify_with_table ~pk ~pk_table "tampered" s);
  let _, pk2 = Schnorr.keygen rng in
  let s2 = Schnorr.sign rng ~sk ~pk "other" in
  Alcotest.(check bool) "mismatched table rejected" false
    (Schnorr.verify_with_table ~pk:pk2
       ~pk_table:(Schnorr.make_pk_table pk2) "other" s2)

(* --- batch verification --------------------------------------------------- *)

let make_batch ?(seed = "batch") n =
  let rng = Drbg.create ~seed in
  Array.init n (fun i ->
      let sk, pk = Schnorr.keygen rng in
      let msg = Printf.sprintf "batch message %d" i in
      (pk, msg, Schnorr.sign rng ~sk ~pk msg))

let test_batch_accepts_valid () =
  let rng = rng () in
  Alcotest.(check bool) "empty batch" true (Schnorr.verify_batch rng [||]);
  Alcotest.(check bool) "singleton" true (Schnorr.verify_batch rng (make_batch 1));
  let items = make_batch 9 in
  Alcotest.(check bool) "9 valid" true (Schnorr.verify_batch rng items);
  Alcotest.(check (list int)) "find on a clean batch" []
    (Schnorr.verify_batch_find rng items)

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
         (Schnorr.verify_batch rng items);
       Alcotest.(check (list int)) (Printf.sprintf "bisection names %d" j) [ j ]
         (Schnorr.verify_batch_find rng items))
    [ 0; 3; 6 ]

let test_batch_find_multiple () =
  let items = make_batch ~seed:"multi" 8 in
  List.iter (fun j -> let pk, _, s = items.(j) in items.(j) <- (pk, "bad", s)) [ 2; 5 ];
  Alcotest.(check (list int)) "both forged indices named" [ 2; 5 ]
    (Schnorr.verify_batch_find (rng ()) items)

(* Batches over a few signers, as in a UCERT: each signer's key terms
   fold into one coefficient. Two signatures by one signer with their
   messages swapped are each invalid, and the fold must not let them
   cancel. *)
let test_batch_one_signer_swapped () =
  let rng = rng () in
  let sk, pk = Schnorr.keygen rng in
  let s1 = Schnorr.sign rng ~sk ~pk "first" and s2 = Schnorr.sign rng ~sk ~pk "second" in
  let items = [| (pk, "first", s2); (pk, "second", s1) |] in
  Alcotest.(check bool) "swapped messages rejected" false (Schnorr.verify_batch rng items);
  Alcotest.(check (list int)) "both named" [ 0; 1 ] (Schnorr.verify_batch_find rng items);
  Alcotest.(check bool) "unswapped accepted" true
    (Schnorr.verify_batch rng [| (pk, "first", s1); (pk, "second", s2) |])

(* n signatures over k keys, at most one forged: the batch verdict is
   the conjunction of the serial verdicts, and bisection names exactly
   the forged index. Every other item carries its key in a non-affine
   representation, which folds with the affine one by its encoding. *)
let prop_batch_few_signers =
  QCheck.Test.make ~name:"batch over few signers = serial verdicts" ~count:20
    ~long_factor:100
    QCheck.(
      triple (int_range 1 5)
        (list_of_size (Gen.int_range 2 40) (int_bound 4))
        (option (int_bound 39)))
    (fun (k, signers, forge) ->
       let rng =
         Drbg.create
           ~seed:(Printf.sprintf "few %d %s" k (String.concat "," (List.map string_of_int signers)))
       in
       let keys = Array.init k (fun _ -> Schnorr.keygen rng) in
       let items =
         Array.of_list
           (List.mapi
              (fun i j ->
                 let sk, pk = keys.(j mod k) in
                 let msg = Printf.sprintf "few %d" i in
                 let sg = Schnorr.sign rng ~sk ~pk msg in
                 let pk = if i mod 2 = 1 then Curve.sub (Curve.double pk) pk else pk in
                 (pk, msg, sg))
              signers)
       in
       let n = Array.length items in
       let forged = Option.map (fun f -> f mod n) forge in
       Option.iter (fun f -> let pk, _, sg = items.(f) in items.(f) <- (pk, "forged", sg)) forged;
       let serial = Array.for_all (fun (pk, msg, sg) -> Schnorr.verify ~pk msg sg) items in
       serial = Option.is_none forged
       && Schnorr.verify_batch rng items = serial
       && Schnorr.verify_batch_find rng items = Option.to_list forged)

let prop_sign_verify =
  QCheck.Test.make ~name:"sign/verify completeness" ~count:15
    QCheck.(string_of_size (QCheck.Gen.int_range 0 100))
    (fun msg ->
       let rng = Drbg.create ~seed:("sv" ^ msg) in
       let sk, pk = Schnorr.keygen rng in
       let s = Schnorr.sign rng ~sk ~pk msg in
       Schnorr.verify ~pk msg s)

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
         Alcotest.test_case "one signer, swapped messages" `Quick test_batch_one_signer_swapped;
         QCheck_alcotest.to_alcotest prop_batch_few_signers ]) ]
