(* Zero-knowledge proof tests: Chaum-Pedersen completeness/soundness
   probes, ballot-correctness proofs (0/1 OR + sum), split-move
   serialization, and the voter-coin challenge extraction. *)

module Nat = Dd_bignum.Nat
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

let test_cp_completeness () =
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let w, fm = Chaum_pedersen.commit rng st in
  let challenge = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
  Alcotest.(check bool) "accepts" true
    (Chaum_pedersen.verify st fm ~challenge ~response)

let test_cp_wrong_witness_rejected () =
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let w, fm = Chaum_pedersen.commit rng st in
  let challenge = Curve.random_scalar rng in
  let bad = Chaum_pedersen.respond ~state:w ~witness:(Nat.add x Nat.one) ~challenge in
  Alcotest.(check bool) "rejects" false
    (Chaum_pedersen.verify st fm ~challenge ~response:bad)

let test_cp_non_ddh_rejected () =
  (* statement where h2 uses a different exponent: no response should
     verify for a fresh random challenge *)
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = { (ddh_statement x) with Chaum_pedersen.h2 = Group_ctx.mul_h (Nat.add x Nat.one) } in
  let w, fm = Chaum_pedersen.commit rng st in
  let challenge = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
  Alcotest.(check bool) "rejects non-DDH" false
    (Chaum_pedersen.verify st fm ~challenge ~response)

let test_cp_simulator () =
  (* the simulator produces accepting transcripts without the witness —
     the honest-verifier ZK property *)
  let rng = rng () in
  let x = Curve.random_scalar rng in
  let st = ddh_statement x in
  let challenge = Curve.random_scalar rng in
  let fm, z = Chaum_pedersen.simulate rng st ~challenge in
  Alcotest.(check bool) "simulated accepts" true
    (Chaum_pedersen.verify st fm ~challenge ~response:z);
  (* but only for its designed challenge *)
  Alcotest.(check bool) "other challenge rejects" false
    (Chaum_pedersen.verify st fm ~challenge:(Nat.add challenge Nat.one) ~response:z)

let arb_scalar =
  QCheck.map
    (fun s -> Dd_bignum.Modular.reduce Curve.scalar_field (Nat.of_bytes_be s))
    (QCheck.string_of_size (QCheck.Gen.return 32))

(* The ballot proof computes its simulated OR branch from the witness;
   given the same (challenge, response) that must be exactly the first
   move Chaum_pedersen.simulate derives from the branch's statement, for
   either committed bit. *)
let prop_simulated_move_matches_simulate =
  QCheck.Test.make ~name:"simulated_move = Chaum_pedersen.simulate" ~count:15
    (QCheck.triple arb_scalar arb_scalar QCheck.small_nat)
    (fun (rand, challenge, seed) ->
       List.for_all
         (fun msg ->
            let c1, c2 = Elgamal.components (Elgamal.commit ~msg ~rand) in
            (* the branch the opening does not satisfy: (c1, c2 - (1-b)*G) *)
            let h2 = if Nat.is_zero msg then Curve.sub c2 Group_ctx.g else c2 in
            let st = { Chaum_pedersen.g1 = Group_ctx.g; g2 = Group_ctx.h; h1 = c1; h2 } in
            let rng = Drbg.create ~seed:(Printf.sprintf "sim%d" seed) in
            let fm, z = Chaum_pedersen.simulate rng st ~challenge in
            let got =
              Ballot_proof.simulated_move { Elgamal.msg; rand } ~challenge ~response:z
            in
            Curve.equal fm.Chaum_pedersen.t1 got.Chaum_pedersen.t1
            && Curve.equal fm.Chaum_pedersen.t2 got.Chaum_pedersen.t2)
         [ Nat.zero; Nat.one ])

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
    (Ballot_proof.verify ~commitments fm ~challenge:(Nat.add challenge Nat.one) fin)

let test_ballot_proof_rejects_invalid_encoding () =
  (* a malicious EA committing to 2 in one coordinate cannot produce a
     prover state at all (the honest prover API refuses), and mixing
     proofs across different commitments must not verify *)
  let rng = rng () in
  let bad_commitment, _ = Elgamal.commit_random rng ~msg:(Nat.of_int 2) in
  let _, good_commitments, good_openings = make_part ~m:3 ~choice:2 in
  (* honest prover refuses non-binary openings *)
  let bad_openings =
    Array.mapi
      (fun i o -> if i = 0 then { o with Elgamal.msg = Nat.of_int 2 } else o)
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
        fst (Elgamal.commit_random rng ~msg:(if i <= 1 then Nat.one else Nat.zero)))
  in
  let total = Elgamal.sum (Array.to_list commitments) in
  let c1, c2 = Elgamal.components total in
  let sum_st =
    { Chaum_pedersen.g1 = Group_ctx.g; g2 = Group_ctx.h;
      h1 = c1; h2 = Curve.sub c2 Group_ctx.g }
  in
  let w, fm = Chaum_pedersen.commit rng sum_st in
  let challenge = Curve.random_scalar rng in
  (* even with the "right" randomness sum as witness the statement is
     false (message sum is 2, not 1), so the proof cannot verify *)
  let fake_witness = Curve.random_scalar rng in
  let response = Chaum_pedersen.respond ~state:w ~witness:fake_witness ~challenge in
  Alcotest.(check bool) "sum=2 rejected" false
    (Chaum_pedersen.verify sum_st fm ~challenge ~response)

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

let make_cp_instances ?(seed = "cp-batch") n =
  let rng = Drbg.create ~seed in
  Array.init n (fun _ ->
      let x = Curve.random_scalar rng in
      let st = ddh_statement x in
      let w, fm = Chaum_pedersen.commit rng st in
      let challenge = Curve.random_scalar rng in
      let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
      { Chaum_pedersen.stmt = st; fm; challenge; response })

let test_cp_batch_accepts () =
  let rng = rng () in
  Alcotest.(check bool) "empty batch" true (Chaum_pedersen.verify_batch rng [||]);
  Alcotest.(check bool) "8 valid" true
    (Chaum_pedersen.verify_batch rng (make_cp_instances 8))

let test_cp_batch_rejects_and_localizes () =
  List.iter
    (fun j ->
       let insts = make_cp_instances ~seed:(Printf.sprintf "cp-forge%d" j) 6 in
       insts.(j) <-
         { insts.(j) with
           Chaum_pedersen.response = Nat.add insts.(j).Chaum_pedersen.response Nat.one };
       Alcotest.(check bool) (Printf.sprintf "forged %d rejected" j) false
         (Chaum_pedersen.verify_batch (rng ()) insts);
       (* bisection over sub-batches names exactly the forged index *)
       let found =
         Dd_group.Batch.find_failures ~n:(Array.length insts)
           ~check:(fun ~lo ~len ->
               Chaum_pedersen.verify_batch
                 (Drbg.create ~seed:(Printf.sprintf "cpf%d.%d" lo len))
                 (Array.sub insts lo len))
       in
       Alcotest.(check (list int)) (Printf.sprintf "bisection names %d" j) [ j ] found)
    [ 0; 2; 5 ]

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
  insts.(3) <-
    { insts.(3) with
      Ballot_proof.challenge = Nat.add insts.(3).Ballot_proof.challenge Nat.one };
  Alcotest.(check bool) "tampered proof rejected" false
    (Ballot_proof.verify_batch (rng ()) insts)

(* --- challenge extraction ----------------------------------------------- *)

let test_challenge_from_coins () =
  let coins = [ true; false; true; true ] in
  let c1 = Challenge.master ~election_id:"e" ~coins in
  let c2 = Challenge.master ~election_id:"e" ~coins in
  Alcotest.(check bool) "deterministic" true (Nat.equal c1 c2);
  let c3 = Challenge.master ~election_id:"e" ~coins:[ true; false; true; false ] in
  Alcotest.(check bool) "coin flip changes challenge" false (Nat.equal c1 c3);
  let c4 = Challenge.master ~election_id:"other" ~coins in
  Alcotest.(check bool) "election id separates" false (Nat.equal c1 c4)

let test_per_proof_challenges_differ () =
  let master = Challenge.master ~election_id:"e" ~coins:[ true ] in
  let a = Challenge.for_proof ~master_challenge:master ~serial:1 ~part:`A in
  let b = Challenge.for_proof ~master_challenge:master ~serial:1 ~part:`B in
  let a2 = Challenge.for_proof ~master_challenge:master ~serial:2 ~part:`A in
  Alcotest.(check bool) "parts differ" false (Nat.equal a b);
  Alcotest.(check bool) "serials differ" false (Nat.equal a a2)

let prop_cp_random_witness =
  QCheck.Test.make ~name:"CP completeness over random witnesses" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
       let rng = Drbg.create ~seed:(string_of_int seed) in
       let x = Curve.random_scalar rng in
       let st = ddh_statement x in
       let w, fm = Chaum_pedersen.commit rng st in
       let challenge = Curve.random_scalar rng in
       let response = Chaum_pedersen.respond ~state:w ~witness:x ~challenge in
       Chaum_pedersen.verify st fm ~challenge ~response)

let () =
  Alcotest.run "zkp"
    [ ("chaum-pedersen",
       [ Alcotest.test_case "completeness" `Quick test_cp_completeness;
         Alcotest.test_case "wrong witness rejected" `Quick test_cp_wrong_witness_rejected;
         Alcotest.test_case "non-DDH rejected" `Quick test_cp_non_ddh_rejected;
         Alcotest.test_case "simulator" `Quick test_cp_simulator;
         QCheck_alcotest.to_alcotest prop_cp_random_witness;
         QCheck_alcotest.to_alcotest prop_simulated_move_matches_simulate ]);
      ("ballot-proof",
       [ Alcotest.test_case "completeness" `Quick test_ballot_proof_completeness;
         Alcotest.test_case "all choices" `Quick test_ballot_proof_all_choices;
         Alcotest.test_case "wrong challenge" `Quick test_ballot_proof_wrong_challenge_rejected;
         Alcotest.test_case "invalid encodings" `Quick test_ballot_proof_rejects_invalid_encoding;
         Alcotest.test_case "sum violation" `Quick test_ballot_proof_sum_violation;
         Alcotest.test_case "state serialization" `Quick test_state_serialization;
         Alcotest.test_case "final move encoding" `Quick test_final_move_encoding_stable ]);
      ("batch",
       [ Alcotest.test_case "CP batch accepts" `Quick test_cp_batch_accepts;
         Alcotest.test_case "CP batch rejects + localizes" `Quick
           test_cp_batch_rejects_and_localizes;
         Alcotest.test_case "ballot-proof batch" `Quick test_ballot_proof_batch ]);
      ("k-of-m",
       [ Alcotest.test_case "2-of-5 proof" `Quick test_k_of_m_proof;
         Alcotest.test_case "approval tally" `Quick test_k_of_m_tally;
         Alcotest.test_case "validation" `Quick test_k_of_m_validation ]);
      ("challenge",
       [ Alcotest.test_case "coins to challenge" `Quick test_challenge_from_coins;
         Alcotest.test_case "per-proof derivation" `Quick test_per_proof_challenges_differ ]) ]
