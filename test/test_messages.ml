(* Wire-format tests for the VC protocol messages: roundtrips for every
   constructor under both authenticator schemes, and fuzz-safety of the
   decoder against hostile bytes. *)

module Types = Ddemos.Types
module Messages = Ddemos.Messages
module Auth = Ddemos.Auth
module Drbg = Dd_crypto.Drbg
module Shamir_bytes = Dd_vss.Shamir_bytes
module Rbc = Dd_consensus.Rbc


let keys scheme = Auth.deal_clique ~scheme ~seed:"msg-test" ~n:4

let sample_ucert ks =
  let body = Messages.endorsement_body ~election_id:"e" ~serial:5 ~code:"codecodecodecodecode" in
  { Messages.u_serial = 5;
    Messages.u_code = "codecodecodecodecode";
    Messages.endorsements = List.init 3 (fun i -> (i, Auth.sign ks.(i) body)) }

let sample_share = { Shamir_bytes.x = 2; Shamir_bytes.data = "8bytes!!" }

let samples scheme =
  let ks = keys scheme in
  let u = sample_ucert ks in
  [ Messages.Vote { serial = 1; vote_code = String.make 20 'v'; client = 3; req = 99 };
    Messages.Endorse { serial = 2; vote_code = String.make 20 'w'; responder = 1 };
    Messages.Endorsement { serial = 5; signer = 0; tag = Auth.sign ks.(0) "anything" };
    Messages.Vote_p
      { serial = 5; vote_code = "codecodecodecodecode"; sender = 2; part = Types.B; pos = 1;
        share = sample_share; share_tag = Some (Auth.sign ks.(3) "share-body"); ucert = u };
    Messages.Vote_p
      { serial = 5; vote_code = "codecodecodecodecode"; sender = 2; part = Types.A; pos = 0;
        share = sample_share; share_tag = None; ucert = u };
    Messages.Share
      { serial = 5; sender = 1; part = Types.B; pos = 2;
        share = sample_share; share_tag = Some (Auth.sign ks.(3) "share-body") };
    Messages.Share
      { serial = 5; sender = 3; part = Types.A; pos = 0; share = sample_share; share_tag = None };
    Messages.Announce
      { sender = 0; entries = [ (5, "codecodecodecodecode"); (9, String.make 20 'z') ] };
    Messages.Announce { sender = 3; entries = [] };
    Messages.Consensus
      { sender = 1;
        rbc = { Rbc.phase = Rbc.Ready; origin = 2; tag = "bc/2/7"; payload = "\x01\x02\xff" } };
    Messages.Recover_request { sender = 2; serials = [ 1; 5; 900 ] };
    Messages.Recover_response { sender = 1; entries = [ (5, "codecodecodecodecode", u) ] } ]

(* structural comparison is fine: tags contain strings and scalars *)
let roundtrip scheme () =
  List.iteri
    (fun i msg ->
       let frame = Messages.encode_vc_msg msg in
       match Messages.decode_vc_msg frame with
       | Some msg' ->
         if msg <> msg' then Alcotest.failf "sample %d did not roundtrip" i
       | None -> Alcotest.failf "sample %d failed to decode" i)
    (samples scheme)

let test_roundtrip_macs () = roundtrip Auth.Mac_scheme ()
let test_roundtrip_schnorr () = roundtrip Auth.Schnorr_scheme ()

let test_ucert_survives_roundtrip_verification () =
  (* a UCERT decoded from bytes still verifies cryptographically *)
  let ks = keys Auth.Mac_scheme in
  let u = sample_ucert ks in
  let msg =
    Messages.Vote_p
      { serial = 5; vote_code = "codecodecodecodecode"; sender = 0; part = Types.A; pos = 0;
        share = sample_share; share_tag = None; ucert = u }
  in
  match Messages.decode_vc_msg (Messages.encode_vc_msg msg) with
  | Some (Messages.Vote_p { ucert; _ }) ->
    Alcotest.(check bool) "decoded UCERT verifies" true
      (Messages.verify_ucert ks.(3) ~election_id:"e" ~quorum:3 ucert)
  | _ -> Alcotest.fail "roundtrip failed"

let test_truncation_rejected () =
  List.iteri
    (fun i msg ->
       let frame = Messages.encode_vc_msg msg in
       for cut = 0 to String.length frame - 1 do
         match Messages.decode_vc_msg (String.sub frame 0 cut) with
         | Some _ -> Alcotest.failf "sample %d: truncated frame at %d decoded" i cut
         | None -> ()
       done)
    (samples Auth.Mac_scheme)

(* A SHARE is a VOTE_P's fields less the code and the UCERT, under
   discriminant 12; an ENDORSEMENT is (serial, signer, tag) under 11.
   The retired forms no longer decode: 8 (the VOTE_P with its UCERT
   elided), 2 (the ENDORSEMENT that repeated the code) and 3 (a VOTE_P
   whose UCERT repeated its binding). *)
let test_vc_encodings () =
  let module Wire = Dd_codec.Wire in
  let ks = keys Auth.Schnorr_scheme in
  let u = sample_ucert ks in
  let code = "codecodecodecodecode" in
  let share_tag = Some (Auth.sign ks.(3) "share-body") in
  let tag = Auth.sign ks.(0) "anything" in
  let encode f = let w = Wire.writer () in f w; Wire.contents w in
  let line w =
    Wire.put_varint w 2; Messages.put_part w Types.B; Wire.put_varint w 1;
    Messages.put_share w sample_share; Wire.put_option w Messages.put_tag share_tag
  in
  let endorsements w =
    Wire.put_list w (fun w (signer, tag) -> Wire.put_varint w signer; Messages.put_tag w tag)
      u.Messages.endorsements
  in
  let full =
    Messages.encode_vc_msg
      (Messages.Vote_p
         { serial = 5; vote_code = code; sender = 2; part = Types.B; pos = 1;
           share = sample_share; share_tag; ucert = u })
  in
  Alcotest.(check string) "VOTE_P = 10, serial, code, line, endorsements"
    (encode (fun w -> Wire.put_varint w 10; Wire.put_varint w 5; Wire.put_bytes w code;
              line w; endorsements w))
    full;
  Alcotest.(check string) "SHARE = 12, serial, line"
    (encode (fun w -> Wire.put_varint w 12; Wire.put_varint w 5; line w))
    (Messages.encode_vc_msg
       (Messages.Share
          { serial = 5; sender = 2; part = Types.B; pos = 1; share = sample_share; share_tag }));
  Alcotest.(check string) "ENDORSEMENT = 11, serial, signer, tag"
    (encode (fun w -> Wire.put_varint w 11; Wire.put_varint w 5; Wire.put_varint w 0;
              Messages.put_tag w tag))
    (Messages.encode_vc_msg (Messages.Endorsement { serial = 5; signer = 0; tag }));
  let retired what frame =
    Alcotest.(check bool) (what ^ " is retired") true (Messages.decode_vc_msg frame = None)
  in
  retired "8, the elided VOTE_P"
    (encode (fun w -> Wire.put_varint w 8; Wire.put_varint w 5; Wire.put_bytes w code; line w));
  retired "2, the ENDORSEMENT with its code"
    (encode (fun w -> Wire.put_varint w 2; Wire.put_varint w 5; Wire.put_bytes w code;
              Wire.put_varint w 0; Messages.put_tag w tag));
  retired "3, the VOTE_P whose UCERT repeated its binding"
    (encode (fun w -> Wire.put_varint w 3; Wire.put_varint w 5; Wire.put_bytes w code;
              line w; Messages.put_ucert w u))

(* A VSC entry carries its (serial, code) once: the decoded UCERT is
   bound to the entry it arrived in, so a certificate for another
   binding can no longer verify. *)
let test_entry_rebinds_ucert () =
  let ks = keys Auth.Mac_scheme in
  let u = sample_ucert ks in
  let other = String.make 20 'z' in
  let msg = Messages.Recover_response { sender = 0; entries = [ (9, other, u) ] } in
  match Messages.decode_vc_msg (Messages.encode_vc_msg msg) with
  | Some (Messages.Recover_response { entries = [ (9, code, u') ]; _ }) ->
    Alcotest.(check string) "code kept" other code;
    Alcotest.(check int) "serial rebound" 9 u'.Messages.u_serial;
    Alcotest.(check string) "code rebound" other u'.Messages.u_code;
    Alcotest.(check bool) "rebound UCERT fails verification" false
      (Messages.verify_ucert ks.(3) ~election_id:"e" ~quorum:3 u')
  | _ -> Alcotest.fail "roundtrip failed"

(* A VOTE_P's certificate is bound to the message's own (serial, code):
   one formed for another binding decodes rebound, and fails. *)
let test_vote_p_rebinds_ucert () =
  let ks = keys Auth.Mac_scheme in
  let u = sample_ucert ks in
  let other = String.make 20 'z' in
  let msg =
    Messages.Vote_p
      { serial = 9; vote_code = other; sender = 0; part = Types.A; pos = 0;
        share = sample_share; share_tag = None; ucert = u }
  in
  match Messages.decode_vc_msg (Messages.encode_vc_msg msg) with
  | Some (Messages.Vote_p { ucert = u'; _ }) ->
    Alcotest.(check int) "serial rebound" 9 u'.Messages.u_serial;
    Alcotest.(check string) "code rebound" other u'.Messages.u_code;
    Alcotest.(check bool) "rebound UCERT fails verification" false
      (Messages.verify_ucert ks.(3) ~election_id:"e" ~quorum:3 u')
  | _ -> Alcotest.fail "roundtrip failed"

let prop_fuzz_total =
  QCheck.Test.make ~name:"decoder total on random bytes" ~count:500 ~long_factor:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun junk ->
       ignore (Messages.decode_vc_msg junk);
       true)

(* The SHARE and ENDORSEMENT decoders on random bodies and on their
   own frames with random bytes flipped. *)
let prop_new_decoders_total =
  let ks = keys Auth.Mac_scheme in
  let frames =
    List.map Messages.encode_vc_msg
      [ Messages.Endorsement { serial = 5; signer = 0; tag = Auth.sign ks.(0) "anything" };
        Messages.Share
          { serial = 5; sender = 1; part = Types.B; pos = 2;
            share = sample_share; share_tag = Some (Auth.sign ks.(3) "share-body") } ]
  in
  QCheck.Test.make ~name:"SHARE and ENDORSEMENT decoders total" ~count:500 ~long_factor:100
    QCheck.(triple bool (string_of_size (QCheck.Gen.int_range 0 60)) (int_range 0 2000))
    (fun (share, junk, flip) ->
       let frame = List.nth frames (if share then 1 else 0) in
       let pos = flip mod String.length frame in
       let flipped =
         String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x41) else c) frame
       in
       ignore (Messages.decode_vc_msg ((if share then "\012" else "\011") ^ junk));
       ignore (Messages.decode_vc_msg flipped);
       true)

let prop_bitflip_never_crashes =
  QCheck.Test.make ~name:"decoder total on bit-flipped frames" ~count:200 ~long_factor:100
    QCheck.(pair (int_range 0 9) (int_range 0 2000))
    (fun (idx, flip) ->
       let msgs = samples Auth.Mac_scheme in
       let frame = Messages.encode_vc_msg (List.nth msgs (idx mod List.length msgs)) in
       let pos = flip mod String.length frame in
       let corrupted =
         String.mapi
           (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x41) else c)
           frame
       in
       (* may decode to Some other message or None — must not raise *)
       ignore (Messages.decode_vc_msg corrupted);
       true)

(* Scalars read from outside the program must be canonical: each decoder
   takes n - 1 and refuses n and 2^256 - 1, whose group action equals
   that of a smaller twin. *)
let test_canonical_scalars () =
  let module Curve = Dd_group.Curve in
  let module Wire = Dd_codec.Wire in
  let scalar k = Nat.to_bytes_be ~len:32 k in
  let vss_share bytes =
    let w = Wire.writer () in
    Wire.put_varint w 1;
    Wire.put_bytes w bytes;
    Wire.put_bytes w (scalar Nat.one);
    Wire.decode (Wire.contents w) Messages.get_vss_share
  in
  let decoders =
    [ ("Schnorr.decode",
       fun s ->
         Option.is_some (Dd_sig.Schnorr.decode (s ^ Curve.encode_compressed Curve.generator)));
      ("Messages.get_vss_share", fun s -> Option.is_some (vss_share s));
      ("Ballot_proof.decode_final_move",
       fun s -> Option.is_some (Dd_zkp.Ballot_proof.decode_final_move s)) ]
  in
  let n = Test_helpers.order in
  List.iter
    (fun (decoder, accepts) ->
       List.iter
         (fun (label, s, want) -> Alcotest.(check bool) (decoder ^ ": " ^ label) want (accepts s))
         [ ("n - 1", scalar (Nat.sub n Nat.one), true);
           ("n", scalar n, false);
           ("2^256 - 1", String.make 32 '\xff', false) ])
    decoders;
  Alcotest.(check bool) "VSS scalar of 33 bytes" false
    (Option.is_some (vss_share ("\x00" ^ scalar Nat.one)))

let () =
  Alcotest.run "messages"
    [ ("wire",
       [ Alcotest.test_case "roundtrip (MAC tags)" `Quick test_roundtrip_macs;
         Alcotest.test_case "roundtrip (Schnorr tags)" `Quick test_roundtrip_schnorr;
         Alcotest.test_case "UCERT verifies after roundtrip" `Quick
           test_ucert_survives_roundtrip_verification;
         Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
         Alcotest.test_case "VOTE_P with and without UCERT" `Quick test_vc_encodings;
         Alcotest.test_case "VSC entry rebinds its UCERT" `Quick test_entry_rebinds_ucert;
         Alcotest.test_case "VOTE_P rebinds its UCERT" `Quick test_vote_p_rebinds_ucert;
         QCheck_alcotest.to_alcotest prop_fuzz_total;
         QCheck_alcotest.to_alcotest prop_bitflip_never_crashes;
         QCheck_alcotest.to_alcotest prop_new_decoders_total;
         Alcotest.test_case "non-canonical scalars rejected" `Quick test_canonical_scalars ]) ]
