(* Zero-knowledge proof tests: Chaum-Pedersen completeness/soundness
   probes, ballot-correctness proofs (0/1 OR + sum), split-move
   serialization, and the voter-coin challenge extraction. *)

module Sc = Dd_bignum.Sc
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve
module Elgamal = Dd_commit.Elgamal
module Unit_vector = Dd_commit.Unit_vector
module Chaum_pedersen = Dd_zkp.Chaum_pedersen
module Ballot_proof = Dd_zkp.Ballot_proof
module Challenge = Dd_zkp.Challenge
module Drbg = Dd_crypto.Drbg

let rng () = Drbg.create ~seed:"zkp-tests"

let ddh_statement x =
  let g1 = Group_ctx.g and g2 = Group_ctx.h in
  { Chaum_pedersen.g1; g2;
    h1 = Group_ctx.mul_g x;
    h2 = Group_ctx.mul_h x }

(* The prover's first move and the simulator, for statements over the
   bases G and H, as the EA forms them: nonce times each base, off the
   comb tables. A simulated move subtracts the public challenge times
   the claims, a variable-time multiplication on public data. *)
let cp_commit rng =
  let w = Curve.random_scalar rng in
  (w, { Chaum_pedersen.t1 = Group_ctx.mul_g w; t2 = Group_ctx.mul_h w })

let cp_simulate rng (st : Chaum_pedersen.statement) ~challenge =
  let z = Curve.random_scalar rng in
  ({ Chaum_pedersen.t1 = Curve.sub (Group_ctx.mul_g z) (Curve.mul_vartime challenge st.h1);
     t2 = Curve.sub (Group_ctx.mul_h z) (Curve.mul_vartime challenge st.h2) },
   z)

(* Both equations of a transcript, each alone at weight one. *)
let cp_verify stmt fm ~challenge ~response =
  let sink = Group_ctx.serial () in
  Chaum_pedersen.equations sink { stmt; fm; challenge; response };
  Group_ctx.verdict sink

let test_cp_completeness () =
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let w, fm = cp_commit rng in
  let challenge = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
  Alcotest.(check bool) "accepts" true
    (cp_verify st fm ~challenge ~response)

let test_cp_wrong_witness_rejected () =
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let w, fm = cp_commit rng in
  let challenge = Curve.random_scalar rng in
  let bad = Chaum_pedersen.respond ~state:w ~witness:(Sc.add x Sc.one) ~challenge in
  Alcotest.(check bool) "rejects" false
    (cp_verify st fm ~challenge ~response:bad)

let test_cp_non_ddh_rejected () =
  (* statement where h2 uses a different exponent: no response should
     verify for a fresh random challenge *)
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = { (ddh_statement x) with Chaum_pedersen.h2 = Group_ctx.mul_h (Sc.add x Sc.one) } in
  let w, fm = cp_commit rng in
  let challenge = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
  Alcotest.(check bool) "rejects non-DDH" false
    (cp_verify st fm ~challenge ~response)

let test_cp_simulator () =
  (* the simulator produces accepting transcripts without the witness —
     the honest-verifier ZK property *)
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let challenge = Curve.random_scalar rng in
  let fm, z = cp_simulate rng st ~challenge in
  Alcotest.(check bool) "simulated accepts" true
    (cp_verify st fm ~challenge ~response:z);
  (* but only for its designed challenge *)
  Alcotest.(check bool) "other challenge rejects" false
    (cp_verify st fm ~challenge:(Sc.add challenge Sc.one) ~response:z)

(* --- ballot proofs ---------------------------------------------------- *)

let make_part ~m ~choice =
  let rng = Drbg.create ~seed:(Printf.sprintf "part%d.%d" m choice) in
  let commitments, openings = Unit_vector.commit rng ~options:m ~choice in
  (rng, commitments, openings)

let test_ballot_proof_completeness () =
  let rng, commitments, openings = make_part ~m:3 ~choice:1 in
  let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
  let challenge = Curve.random_scalar rng in
  let fin = Ballot_proof.finalize state ~challenge in
  Alcotest.(check bool) "accepts" true
    (Ballot_proof.verify ~commitments fm ~challenge fin)

let test_ballot_proof_all_choices () =
  List.iter
    (fun choice ->
       let rng, commitments, openings = make_part ~m:4 ~choice in
       let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
       let challenge = Curve.random_scalar rng in
       let fin = Ballot_proof.finalize state ~challenge in
       Alcotest.(check bool) (Printf.sprintf "choice %d" choice) true
         (Ballot_proof.verify ~commitments fm ~challenge fin))
    [ 0; 1; 2; 3 ]

let test_ballot_proof_wrong_challenge_rejected () =
  let rng, commitments, openings = make_part ~m:3 ~choice:0 in
  let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
  let challenge = Curve.random_scalar rng in
  let fin = Ballot_proof.finalize state ~challenge in
  Alcotest.(check bool) "rejects different challenge" false
    (Ballot_proof.verify ~commitments fm ~challenge:(Sc.add challenge Sc.one) fin)

let test_ballot_proof_rejects_invalid_encoding () =
  (* a malicious EA committing to 2 in one coordinate cannot produce a
     prover state at all (the honest prover API refuses), and mixing
     proofs across different commitments must not verify *)
  let rng = rng () in
  let bad_commitment, _ = Elgamal.commit_random rng ~msg:(Sc.of_int 2) in
  let _, good_commitments, good_openings = make_part ~m:3 ~choice:2 in
  (* honest prover refuses non-binary openings *)
  let bad_openings =
    Array.mapi
      (fun i o -> if i = 0 then { o with Elgamal.msg = Sc.of_int 2 } else o)
      good_openings
  in
  Alcotest.check_raises "prover refuses"
    (Invalid_argument "Ballot_proof.prove_commit: message not 0/1")
    (fun () -> ignore (Ballot_proof.prove_commit rng ~commitments:good_commitments
                         ~openings:bad_openings));
  (* transplanting a proof onto different commitments fails *)
  let state, fm = Ballot_proof.prove_commit rng ~commitments:good_commitments
      ~openings:good_openings
  in
  let challenge = Curve.random_scalar rng in
  let fin = Ballot_proof.finalize state ~challenge in
  let swapped = Array.copy good_commitments in
  swapped.(0) <- bad_commitment;
  Alcotest.(check bool) "rejects swapped commitment" false
    (Ballot_proof.verify ~commitments:swapped fm ~challenge fin)

let test_ballot_proof_sum_violation () =
  (* a vector committing to (1, 1, 0): every row is a valid 0/1
     encryption, but the sum statement (total encrypts exactly 1) is
     false, so no Chaum-Pedersen response can make it verify *)
  let rng = rng () in
  let commitments =
    Array.init 3 (fun i ->
        fst (Elgamal.commit_random rng ~msg:(if i <= 1 then Sc.one else Sc.zero)))
  in
  let total = Elgamal.sum (Array.to_list commitments) in
  let c1, c2 = Elgamal.components total in
  let sum_st =
    { Chaum_pedersen.g1 = Group_ctx.g; g2 = Group_ctx.h;
      h1 = c1; h2 = Curve.sub c2 Group_ctx.g }
  in
  let w, fm = cp_commit rng in
  let challenge = Curve.random_scalar rng in
  (* even with the "right" randomness sum as witness the statement is
     false (message sum is 2, not 1), so the proof cannot verify *)
  let fake_witness = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:fake_witness ~challenge in
  Alcotest.(check bool) "sum=2 rejected" false
    (cp_verify sum_st fm ~challenge ~response)

let test_state_serialization () =
  let rng, commitments, openings = make_part ~m:3 ~choice:1 in
  let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
  let blob = Ballot_proof.encode_state state in
  (match Ballot_proof.decode_state blob with
   | None -> Alcotest.fail "decode_state failed"
   | Some state' ->
     let challenge = Curve.random_scalar rng in
     let fin = Ballot_proof.finalize state' ~challenge in
     Alcotest.(check bool) "decoded state finalizes correctly" true
       (Ballot_proof.verify ~commitments fm ~challenge fin));
  Alcotest.(check bool) "garbage rejected" true (Ballot_proof.decode_state "junk" = None);
  Alcotest.(check bool) "truncated rejected" true
    (Ballot_proof.decode_state (String.sub blob 0 (String.length blob - 5)) = None)

let test_final_move_encoding_stable () =
  let rng, commitments, openings = make_part ~m:2 ~choice:0 in
  let state, _ = Ballot_proof.prove_commit rng ~commitments ~openings in
  let challenge = Curve.random_scalar rng in
  let fin = Ballot_proof.finalize state ~challenge in
  Alcotest.(check string) "deterministic encoding"
    (Ballot_proof.encode_final_move fin) (Ballot_proof.encode_final_move fin)

(* --- k-out-of-m extension (paper's future work) --------------------------- *)

let test_k_of_m_proof () =
  let rng = rng () in
  let commitments, openings =
    Unit_vector.commit_k rng ~options:5 ~choices:[ 1; 3 ]
  in
  let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
  let challenge = Curve.random_scalar rng in
  let fin = Ballot_proof.finalize state ~challenge in
  Alcotest.(check bool) "2-of-5 proof verifies" true
    (Ballot_proof.verify ~k:2 ~commitments fm ~challenge fin);
  (* the same transcript does not pass for the wrong k *)
  Alcotest.(check bool) "wrong k rejected" false
    (Ballot_proof.verify ~k:1 ~commitments fm ~challenge fin)

let test_k_of_m_tally () =
  let rng = rng () in
  (* two voters pick 2 of 4 options each; the homomorphic tally counts
     per-option approvals *)
  let v1 = Unit_vector.commit_k rng ~options:4 ~choices:[ 0; 2 ] in
  let v2 = Unit_vector.commit_k rng ~options:4 ~choices:[ 2; 3 ] in
  let osum = Unit_vector.sum_openings ~options:4 [ snd v1; snd v2 ] in
  Alcotest.(check (array int)) "approval counts" [| 1; 0; 2; 1 |]
    (Unit_vector.counts_of_opening osum)

let test_k_of_m_validation () =
  let rng = rng () in
  Alcotest.check_raises "duplicate choices"
    (Invalid_argument "Unit_vector.commit_k: duplicate choice")
    (fun () -> ignore (Unit_vector.commit_k rng ~options:4 ~choices:[ 1; 1 ]))

(* --- batch verification --------------------------------------------------- *)

let test_ballot_proof_batch () =
  let insts =
    Array.init 5 (fun i ->
        let rng, commitments, openings = make_part ~m:3 ~choice:(i mod 3) in
        let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
        let challenge = Curve.random_scalar rng in
        let fin = Ballot_proof.finalize state ~challenge in
        { Ballot_proof.commitments; fm; challenge; fin })
  in
  Alcotest.(check bool) "5 valid" true (Ballot_proof.verify_batch (rng ()) insts);
  (* a response flipped by one keeps every row's c0 + c1 = challenge,
     so only the folded Chaum-Pedersen equations can reject it *)
  let tamper_response (inst : Ballot_proof.instance) ~off =
    let s = Bytes.of_string (Ballot_proof.encode_final_move inst.Ballot_proof.fin) in
    let off = if off < 0 then Bytes.length s + off else off in
    Bytes.set s (off + 31) (Char.chr (Char.code (Bytes.get s (off + 31)) lxor 1));
    match Ballot_proof.decode_final_move (Bytes.to_string s) with
    | Some fin -> { inst with Ballot_proof.fin }
    | None -> Alcotest.fail "tampered final move does not decode"
  in
  List.iter
    (fun (what, off) ->
       let forged = Array.copy insts in
       forged.(2) <- tamper_response insts.(2) ~off;
       Alcotest.(check bool) (what ^ " rejected") false
         (Ballot_proof.verify_batch (rng ()) forged);
       let found =
         Dd_group.Batch.find_failures ~n:(Array.length forged)
           ~check:(fun ~lo ~len ->
               Ballot_proof.verify_batch
                 (Drbg.create ~seed:(Printf.sprintf "bpf%d.%d" lo len))
                 (Array.sub forged lo len))
       in
       Alcotest.(check (list int)) (what ^ " localized") [ 2 ] found)
    (* row 0's z0 follows its c0 and c1; the sum response ends the move *)
    [ ("row z0", 64); ("sum response", -32) ];
  insts.(3) <-
    { insts.(3) with
      Ballot_proof.challenge = Sc.add insts.(3).Ballot_proof.challenge Sc.one };
  Alcotest.(check bool) "tampered proof rejected" false
    (Ballot_proof.verify_batch (rng ()) insts)

(* --- equations that cancel at weight one ------------------------------------ *)

(* t1 + D and t2 - D offset a Chaum-Pedersen transcript's two equations
   by -D and +D: a check that summed them at weight one would accept.
   Each equation is checked alone (serial) or under a weight of its own
   (batch). *)
let offset = Curve.hash_to_point "cancelling offset"

let cancel_offset (fm : Chaum_pedersen.first_move) =
  { Chaum_pedersen.t1 = Curve.add fm.t1 offset; t2 = Curve.sub fm.t2 offset }

let test_cp_cancelling_forgery () =
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let w, fm = cp_commit rng in
  let challenge = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
  let forged = cancel_offset fm in
  let times = Sc.mul in
  Alcotest.(check bool) "the two equations sum to O" true
    (Group_ctx.holds (fun acc w ->
         Group_ctx.acc_add acc (times w response) st.g1;
         Group_ctx.acc_sub acc w forged.t1;
         Group_ctx.acc_sub acc (times w challenge) st.h1;
         Group_ctx.acc_add acc (times w response) st.g2;
         Group_ctx.acc_sub acc w forged.t2;
         Group_ctx.acc_sub acc (times w challenge) st.h2));
  Alcotest.(check bool) "serial rejects" false
    (cp_verify st forged ~challenge ~response);
  let batch fms =
    let sink = Group_ctx.folded rng in
    List.iter
      (fun fm -> Chaum_pedersen.equations sink { stmt = st; fm; challenge; response })
      fms;
    Group_ctx.verdict sink
  in
  Alcotest.(check bool) "batch accepts the honest pair" true (batch [ fm; fm ]);
  Alcotest.(check bool) "batch rejects" false (batch [ fm; forged ])

(* The same offset on row 0's a0 branch of a ballot proof. *)
let cancel_row0 fm =
  let pts = Ballot_proof.first_move_points fm in
  let a0 = cancel_offset { Chaum_pedersen.t1 = pts.(0); t2 = pts.(1) } in
  pts.(0) <- a0.t1;
  pts.(1) <- a0.t2;
  Ballot_proof.first_move_of_points pts

let proof_instance ?(seed = "") ~m ~choice () =
  let rng = Drbg.create ~seed:(Printf.sprintf "proof %s %d.%d" seed m choice) in
  let commitments, openings = Unit_vector.commit rng ~options:m ~choice in
  let state, fm = Ballot_proof.prove_commit rng ~commitments ~openings in
  let challenge = Curve.random_scalar rng in
  { Ballot_proof.commitments; fm; challenge; fin = Ballot_proof.finalize state ~challenge }

let test_ballot_proof_cancelling_forgery () =
  let honest = proof_instance ~m:3 ~choice:1 () in
  let forged = { honest with Ballot_proof.fm = cancel_row0 honest.Ballot_proof.fm } in
  Alcotest.(check bool) "serial rejects" false
    (Ballot_proof.verify ~commitments:forged.commitments forged.fm
       ~challenge:forged.challenge forged.fin);
  let other = proof_instance ~m:3 ~choice:2 () in
  Alcotest.(check bool) "batch rejects" false
    (Ballot_proof.verify_batch (rng ()) [| other; forged |])

(* n ballot proofs, at most one forged (a flipped response, the
   cancelling offset, or another challenge): the batch verdict is the
   conjunction of the serial verdicts, and bisection names exactly the
   forged index. *)
let prop_ballot_proof_batch_serial =
  QCheck.Test.make ~name:"ballot-proof batch = serial verdicts" ~count:6 ~long_factor:100
    QCheck.(triple (int_range 2 5) (option (int_bound 4)) (int_bound 2))
    (fun (n, forge, kind) ->
       let seed = Printf.sprintf "%d %d %d" n (Option.value forge ~default:(-1)) kind in
       let insts =
         Array.init n (fun i ->
             proof_instance ~seed:(Printf.sprintf "%s/%d" seed i) ~m:(2 + (i mod 2))
               ~choice:(i mod 2) ())
       in
       let forged = Option.map (fun f -> f mod n) forge in
       Option.iter
         (fun f ->
            let inst = insts.(f) in
            insts.(f) <-
              (match kind with
               | 0 ->
                 let fin = inst.Ballot_proof.fin in
                 let s = Ballot_proof.encode_final_move fin in
                 let last = String.length s - 1 in
                 let s = String.mapi (fun i c -> if i = last then Char.chr (Char.code c lxor 1) else c) s in
                 { inst with fin = Option.get (Ballot_proof.decode_final_move s) }
               | 1 -> { inst with fm = cancel_row0 inst.fm }
               | _ -> { inst with challenge = Sc.add inst.challenge Sc.one }))
         forged;
       let serial =
         Array.for_all
           (fun (i : Ballot_proof.instance) ->
              Ballot_proof.verify ~commitments:i.commitments i.fm ~challenge:i.challenge i.fin)
           insts
       in
       let rng = Drbg.create ~seed:("weights " ^ seed) in
       serial = Option.is_none forged
       && Ballot_proof.verify_batch rng insts = serial
       && Dd_group.Batch.find_failures ~n
            ~check:(fun ~lo ~len -> Ballot_proof.verify_batch rng (Array.sub insts lo len))
          = Option.to_list forged)

(* --- challenge extraction ----------------------------------------------- *)

let test_challenge_from_coins () =
  let coins = [ true; false; true; true ] in
  let c1 = Challenge.master ~election_id:"e" ~coins in
  let c2 = Challenge.master ~election_id:"e" ~coins in
  Alcotest.(check bool) "deterministic" true (Sc.equal c1 c2);
  let c3 = Challenge.master ~election_id:"e" ~coins:[ true; false; true; false ] in
  Alcotest.(check bool) "coin flip changes challenge" false (Sc.equal c1 c3);
  let c4 = Challenge.master ~election_id:"other" ~coins in
  Alcotest.(check bool) "election id separates" false (Sc.equal c1 c4)

let test_per_proof_challenges_differ () =
  let master = Challenge.master ~election_id:"e" ~coins:[ true ] in
  let a = Challenge.for_proof ~master_challenge:master ~serial:1 ~part:`A in
  let b = Challenge.for_proof ~master_challenge:master ~serial:1 ~part:`B in
  let a2 = Challenge.for_proof ~master_challenge:master ~serial:2 ~part:`A in
  Alcotest.(check bool) "parts differ" false (Sc.equal a b);
  Alcotest.(check bool) "serials differ" false (Sc.equal a a2)

let prop_cp_random_witness =
  QCheck.Test.make ~name:"CP completeness over random witnesses" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
       let rng = Drbg.create ~seed:(string_of_int seed) in
       let x = Curve.random_scalar rng in
       let st = ddh_statement x in
       let w, fm = cp_commit rng in
       let challenge = Curve.random_scalar rng in
       let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
       cp_verify st fm ~challenge ~response)

let () =
  Alcotest.run "zkp"
    [ ("chaum-pedersen",
       [ Alcotest.test_case "completeness" `Quick test_cp_completeness;
         Alcotest.test_case "wrong witness rejected" `Quick test_cp_wrong_witness_rejected;
         Alcotest.test_case "non-DDH rejected" `Quick test_cp_non_ddh_rejected;
         Alcotest.test_case "simulator" `Quick test_cp_simulator;
         QCheck_alcotest.to_alcotest prop_cp_random_witness ]);
      ("ballot-proof",
       [ Alcotest.test_case "completeness" `Quick test_ballot_proof_completeness;
         Alcotest.test_case "all choices" `Quick test_ballot_proof_all_choices;
         Alcotest.test_case "wrong challenge" `Quick test_ballot_proof_wrong_challenge_rejected;
         Alcotest.test_case "invalid encodings" `Quick test_ballot_proof_rejects_invalid_encoding;
         Alcotest.test_case "sum violation" `Quick test_ballot_proof_sum_violation;
         Alcotest.test_case "state serialization" `Quick test_state_serialization;
         Alcotest.test_case "final move encoding" `Quick test_final_move_encoding_stable ]);
      ("batch",
       [ Alcotest.test_case "ballot-proof batch" `Quick test_ballot_proof_batch;
         Alcotest.test_case "CP equations that cancel at weight one" `Quick
           test_cp_cancelling_forgery;
         Alcotest.test_case "proof equations that cancel at weight one" `Quick
           test_ballot_proof_cancelling_forgery;
         QCheck_alcotest.to_alcotest prop_ballot_proof_batch_serial ]);
      ("k-of-m",
       [ Alcotest.test_case "2-of-5 proof" `Quick test_k_of_m_proof;
         Alcotest.test_case "approval tally" `Quick test_k_of_m_tally;
         Alcotest.test_case "validation" `Quick test_k_of_m_validation ]);
      ("challenge",
       [ Alcotest.test_case "coins to challenge" `Quick test_challenge_from_coins;
         Alcotest.test_case "per-proof derivation" `Quick test_per_proof_challenges_differ ]) ]
