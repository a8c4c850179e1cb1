(* Schnorr signature tests. *)

module Schnorr = Dd_sig.Schnorr
module Group_ctx = Dd_group.Group_ctx
module Drbg = Dd_crypto.Drbg
module Sc = Dd_bignum.Sc
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
  Alcotest.(check bool) "garbage rejected" true (Schnorr.decode "xx" = None)

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

(* The GLV table's verdict is plain verify's, for honest signatures and
   for the ways one goes bad: another message, a flipped byte of s or of
   R (a tampered signature that still decodes), and another signer's
   key and table. *)
let prop_table_verify_matches =
  QCheck.Test.make ~name:"GLV table verify = plain verify" ~count:30
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 40)) (int_bound 64))
    (fun (msg, at) ->
       let rng = Drbg.create ~seed:("glv" ^ msg) in
       let sk, pk = Schnorr.keygen rng in
       let _, other = Schnorr.keygen rng in
       let pk_table = Schnorr.make_pk_table pk and other_table = Schnorr.make_pk_table other in
       let s = Schnorr.sign rng ~sk ~pk msg in
       let flipped =
         let b = Bytes.of_string (Schnorr.encode s) in
         Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x10));
         Schnorr.decode (Bytes.to_string b)
       in
       let agree ~pk ~pk_table msg s =
         Schnorr.verify_with_table ~pk ~pk_table msg s = Schnorr.verify ~pk msg s
       in
       Schnorr.verify_with_table ~pk ~pk_table msg s
       && agree ~pk ~pk_table (msg ^ "!") s
       && agree ~pk:other ~pk_table:other_table msg s
       && Option.fold ~none:true ~some:(agree ~pk ~pk_table msg) flipped)

(* A clique's tables built in one batch give the verdicts of tables
   built one at a time, and through [Auth]'s shared cells too; the
   width-8 G and H tables built in one batch hold the entries of their
   own builds. *)
let test_clique_tables_one_batch () =
  let rng = Drbg.create ~seed:"clique batch" in
  let keys = Array.init 5 (fun _ -> Schnorr.keygen rng) in
  let pks = Array.map snd keys in
  let batch = Schnorr.make_pk_tables pks and alone = Array.map Schnorr.make_pk_table pks in
  Array.iteri
    (fun i (sk, pk) ->
       let s = Schnorr.sign rng ~sk ~pk "clique" in
       List.iter
         (fun (msg, j) ->
            let want = Schnorr.verify ~pk:pks.(j) msg s in
            Alcotest.(check bool) (Printf.sprintf "signer %d as %d on %S, batch" i j msg) want
              (Schnorr.verify_with_table ~pk:pks.(j) ~pk_table:batch.(j) msg s);
            Alcotest.(check bool) (Printf.sprintf "signer %d as %d on %S, alone" i j msg) want
              (Schnorr.verify_with_table ~pk:pks.(j) ~pk_table:alone.(j) msg s))
         [ ("clique", i); ("clique", (i + 1) mod 5); ("other", i) ])
    keys;
  let auth = Ddemos.Auth.deal_clique ~scheme:Ddemos.Auth.Schnorr_scheme ~seed:"clique" ~n:5 in
  Array.iteri
    (fun i k ->
       let tag = Ddemos.Auth.sign k "clique" in
       Alcotest.(check bool) (Printf.sprintf "Auth signer %d" i) true
         (Ddemos.Auth.verify auth.(0) ~signer:i "clique" tag);
       Alcotest.(check bool) (Printf.sprintf "Auth signer %d as another" i) false
         (Ddemos.Auth.verify auth.(0) ~signer:((i + 1) mod 5) "clique" tag))
    auth;
  let entries table =
    Array.map (Array.map Curve.encode) (Curve.base_table_rows table)
  in
  let bases = [| Group_ctx.g; Group_ctx.h; Curve.infinity |] in
  Array.iter2
    (fun base table ->
       Alcotest.(check (array (array string))) "width-8 entries"
         (entries (Curve.make_base_table ~width:8 base)) (entries table))
    bases (Curve.make_base_tables ~width:8 bases)

(* --- batch verification --------------------------------------------------- *)

let make_batch ?(seed = "batch") n =
  let rng = Drbg.create ~seed in
  Array.init n (fun i ->
      let sk, pk = Schnorr.keygen rng in
      let msg = Printf.sprintf "batch message %d" i in
      (pk, msg, Schnorr.sign rng ~sk ~pk msg))

(* Sorted indices of the invalid signatures, by bisecting sub-batches,
   as the auditor localizes a failing batch. *)
let find_forged rng items =
  Dd_group.Batch.find_failures ~n:(Array.length items)
    ~check:(fun ~lo ~len -> Schnorr.verify_batch rng (Array.sub items lo len))

let test_batch_accepts_valid () =
  let rng = rng () in
  Alcotest.(check bool) "empty batch" true (Schnorr.verify_batch rng [||]);
  Alcotest.(check bool) "singleton" true (Schnorr.verify_batch rng (make_batch 1));
  let items = make_batch 9 in
  Alcotest.(check bool) "9 valid" true (Schnorr.verify_batch rng items);
  Alcotest.(check (list int)) "find on a clean batch" []
    (find_forged rng items)

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
         (find_forged rng items))
    [ 0; 3; 6 ]

let test_batch_find_multiple () =
  let items = make_batch ~seed:"multi" 8 in
  List.iter (fun j -> let pk, _, s = items.(j) in items.(j) <- (pk, "bad", s)) [ 2; 5 ];
  Alcotest.(check (list int)) "both forged indices named" [ 2; 5 ]
    (find_forged (rng ()) items)

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
  Alcotest.(check (list int)) "both named" [ 0; 1 ] (find_forged rng items);
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
                 let pk = if i mod 2 = 1 then Curve.sub (Curve.add pk pk) pk else pk in
                 (pk, msg, sg))
              signers)
       in
       let n = Array.length items in
       let forged = Option.map (fun f -> f mod n) forge in
       Option.iter (fun f -> let pk, _, sg = items.(f) in items.(f) <- (pk, "forged", sg)) forged;
       let serial = Array.for_all (fun (pk, msg, sg) -> Schnorr.verify ~pk msg sg) items in
       serial = Option.is_none forged
       && Schnorr.verify_batch rng items = serial
       && find_forged rng items = Option.to_list forged)

(* A batch of 62 signatures under 5 keys (a cast-rush tick's shape)
   allocates at most 1,400 minor words per signature once the domain's
   MSM arena has grown to it. *)
let test_batch_alloc_per_signature () =
  let rng = rng () in
  let keys = Array.init 5 (fun _ -> Schnorr.keygen rng) in
  let items =
    Array.init 62 (fun i ->
        let sk, pk = keys.(i mod 5) in
        let msg = Printf.sprintf "alloc %d" i in
        (pk, msg, Schnorr.sign rng ~sk ~pk msg))
  in
  let verify () = Schnorr.verify_batch (Drbg.create ~seed:"alloc weights") items in
  Alcotest.(check bool) "the batch verifies" true (verify ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (verify ()));
  let per_sig = (Gc.minor_words () -. before) /. 62. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per signature, at most 1,400" per_sig) true
    (per_sig <= 1400.)

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
         Alcotest.test_case "clique tables in one batch = one at a time" `Quick
           test_clique_tables_one_batch;
         QCheck_alcotest.to_alcotest prop_sign_verify;
         QCheck_alcotest.to_alcotest prop_table_verify_matches ]);
      ("batch",
       [ Alcotest.test_case "accepts valid batches" `Quick test_batch_accepts_valid;
         Alcotest.test_case "rejects one forged item" `Quick test_batch_rejects_forged;
         Alcotest.test_case "localizes several" `Quick test_batch_find_multiple;
         Alcotest.test_case "one signer, swapped messages" `Quick test_batch_one_signer_swapped;
         Alcotest.test_case "allocation per signature" `Quick test_batch_alloc_per_signature;
         QCheck_alcotest.to_alcotest prop_batch_few_signers ]) ]
