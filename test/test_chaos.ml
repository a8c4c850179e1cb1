(* Chaos-harness tests: the adversary model and fault plans exercised
   end-to-end, asserting the paper's threshold guarantees.
   - every Byzantine VC behavior with at most fv corrupt collectors
     violates no guarantee ({!Ddemos.Guarantees.check}),
   - fv + 1 equivocators produce a *detected* safety violation
     (conflicting valid UCERTs / diverging honest vote sets),
   - fb Byzantine BB nodes are masked by fb + 1 majority reads and a
     passing audit,
   - each guarantee's check names that guarantee alone when one field
     of a passing run's result breaks it,
   - the node table behind crash-restart: which nodes get a device, in
     which order they are listed, and that only the crashed ones cycle,
   - Voter.retry_delay backoff arithmetic. *)

module Types = Ddemos.Types
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Auditor = Ddemos.Auditor
module Bb_reader = Ddemos.Bb_reader
module Voter = Ddemos.Voter
module Guarantees = Ddemos.Guarantees
module Fault_plan = Dd_sim.Fault_plan
module Drbg = Dd_crypto.Drbg
module Mem = Dd_store.Device.Mem

let small_cfg = { Types.default_config with Types.n_voters = 5; Types.m_options = 3 }

let votes_of l = List.map (fun (s, c) -> { Election.vi_serial = s; Election.vi_choice = c }) l

(* Shared full-crypto election, sealed in memory (EA setup is the
   expensive part). *)
let source = lazy (Node_source.in_memory small_cfg ~seed:"chaos-test")

let run_full ?(seed = "chaos-run") ?(byzantine_vc = []) ?(byzantine_bb = [])
    ?(faults = Fault_plan.none) votes =
  let p =
    Election.default_params
      ~fidelity:(Election.Source (Lazy.force source))
      small_cfg ~votes:(votes_of votes)
  in
  let p =
    { p with Election.seed; concurrent_clients = 3; byzantine_vc; byzantine_bb; faults;
             voter_patience = 2.0 }
  in
  (p, Election.run p)

let m_cfg = { Types.default_config with Types.n_voters = 24 }

let run_modeled ?(seed = "chaos-run") ?(byzantine_vc = []) ?(faults = Fault_plan.none)
    ?(blacklist_rounds = 1) ?(patience = 2.0) votes =
  let p = Election.default_params m_cfg ~votes:(votes_of votes) in
  let p =
    { p with Election.seed; concurrent_clients = 6; byzantine_vc; faults;
             blacklist_rounds; voter_patience = patience }
  in
  (p, Election.run p)

let m_votes = List.init 12 (fun s -> (s, s mod 3))

let violations p r = List.map Guarantees.to_string (Guarantees.check p r)

(* the guarantees a run breaks, each named once *)
let broken p r =
  List.sort_uniq compare
    (List.map (fun v -> Guarantees.name v.Guarantees.guarantee) (Guarantees.check p r))

let no_violations p r =
  Alcotest.(check (list string)) "no guarantee violated" [] (violations p r)

(* --- each behavior, at most fv corrupt collectors ----------------------- *)

let test_behavior_within_threshold (behavior : Election.byzantine_behavior) () =
  let p, r = run_modeled ~byzantine_vc:[ (1, behavior) ] ~patience:1.0 m_votes in
  Alcotest.(check int) "all receipts" 12 r.Election.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check int) "nobody exhausted" 0 r.Election.exhausted;
  Alcotest.(check bool) "no timeout" false r.Election.timed_out;
  Alcotest.(check (list (triple int string string))) "no UCERT conflicts" []
    r.Election.ucert_conflicts;
  no_violations p r;
  match r.Election.tally with
  | None -> Alcotest.fail "no tally"
  | Some t -> Alcotest.(check (array int)) "tally" r.Election.expected_tally t

(* Corrupt_shares and Malformed_wire need full fidelity: modeled
   ballots skip share-tag verification, so corrupted shares would be
   accepted shape-only; with real crypto the tags reject them and the
   honest quorum still reconstructs every receipt. A Misplaced_shares
   share carries a valid tag for the line it is on; the receivers'
   check of that line against their own rejects it. *)
let test_full_behavior_within_threshold behavior () =
  let votes = [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 1) ] in
  let p, r = run_full ~byzantine_vc:[ (1, behavior) ] votes in
  Alcotest.(check int) "all receipts" 5 r.Election.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check (list (triple int string string))) "no UCERT conflicts" []
    r.Election.ucert_conflicts;
  no_violations p r;
  (match Bb_reader.tally ~cfg:small_cfg r.Election.bb_nodes with
   | Bb_reader.Agreed t -> Alcotest.(check (array int)) "tally" [| 1; 3; 1 |] t
   | Bb_reader.No_majority -> Alcotest.fail "no tally majority")

(* Serials 0..3 each cast twice with different choices by adjacent
   concurrent clients — the contention the UCERT-uniqueness argument
   is about, repeated so the equivocation race is run four times
   independently per seed. *)
let doubled_votes =
  [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 2); (2, 0); (3, 0); (3, 1) ]
  @ List.filter (fun (s, _) -> s > 3) m_votes

(* One equivocator + doubled serials: quorum intersection leaves the
   honest majority in charge, so exactly one code per serial certifies
   and no conflicting UCERT can form. *)
let test_equivocate_within_threshold () =
  let p, r =
    run_modeled ~byzantine_vc:[ (3, Election.Equivocate) ] ~seed:"equiv" doubled_votes
  in
  (* for each doubled serial one cast wins; the other may be rejected *)
  Alcotest.(check bool) "receipts in range" true
    (r.Election.receipts_ok >= 12 && r.Election.receipts_ok <= 16);
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check (list (triple int string string))) "no UCERT conflicts" []
    r.Election.ucert_conflicts;
  no_violations p r;
  (* every doubled serial appears exactly once in the agreed set *)
  match r.Election.vc_submit_sets with
  | [] -> Alcotest.fail "no submissions"
  | (_, set) :: _ ->
    List.iter
      (fun serial ->
         Alcotest.(check int) (Printf.sprintf "serial %d once" serial) 1
           (List.length (List.filter (fun (s, _) -> s = serial) set)))
      [ 0; 1; 2; 3 ]

(* --- over threshold: fv + 1 equivocators MUST be detected ---------------- *)

let overthreshold_run seed =
  run_modeled ~seed
    ~byzantine_vc:[ (2, Election.Equivocate); (3, Election.Equivocate) ]
    doubled_votes

(* Whether both codes certify is a race among the honest nodes'
   first-seen endorsements, so detection is per-seed; sweep a small
   deterministic seed set and require the attack to surface as a broken
   UCERT uniqueness or vote-set agreement. *)
let test_overthreshold_equivocate_detected () =
  let seeds = List.init 10 (Printf.sprintf "overthreshold-%d") in
  let runs = List.map (fun s -> let p, r = overthreshold_run s in broken p r) seeds in
  let hits =
    List.filter
      (fun b -> List.mem "ucert-uniqueness" b || List.mem "vote-set-agreement" b)
      runs
  in
  Alcotest.(check bool)
    (Printf.sprintf "conflicting UCERTs detected on %d/10 seeds" (List.length hits))
    true
    (hits <> []);
  (* and at least one seed surfaces the conflict via the explicit
     conflicting-UCERT observation, not only via set divergence *)
  Alcotest.(check bool) "explicit UCERT conflict observed" true
    (List.exists (List.mem "ucert-uniqueness") runs)

(* Within threshold the same doubled-serial load breaks no guarantee
   across the same seeds — the checks have no false positives. *)
let test_within_threshold_no_false_positives () =
  List.iter
    (fun seed ->
       let p, r = run_modeled ~seed ~byzantine_vc:[ (3, Election.Equivocate) ] doubled_votes in
       Alcotest.(check (list string)) (seed ^ ": nothing violated") [] (violations p r))
    (List.init 10 (Printf.sprintf "overthreshold-%d"))

(* --- Byzantine bulletin board, at most fb -------------------------------- *)

let test_byzantine_bb_masked () =
  let votes = [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 1) ] in
  let p, r = run_full ~byzantine_bb:[ 0 ] votes in
  Alcotest.(check int) "all receipts" 5 r.Election.receipts_ok;
  no_violations p r;
  (match Bb_reader.final_set ~cfg:small_cfg r.Election.bb_nodes with
   | Bb_reader.Agreed set -> Alcotest.(check int) "five votes in final set" 5 (List.length set)
   | Bb_reader.No_majority -> Alcotest.fail "no final-set majority");
  (match Bb_reader.tally ~cfg:small_cfg r.Election.bb_nodes with
   | Bb_reader.Agreed t -> Alcotest.(check (array int)) "tally" [| 1; 3; 1 |] t
   | Bb_reader.No_majority -> Alcotest.fail "no tally majority");
  match Auditor.assemble ~cfg:small_cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no audit view despite an honest majority"
  | Some view -> Alcotest.(check bool) "audit passes" true (Auditor.all_ok (Auditor.audit view))

(* --- each guarantee, broken alone ------------------------------------------ *)

(* Passing runs to break one field of: a modeled one, and a full-crypto
   one for the board audit. *)
let passing_modeled = lazy (run_modeled ~seed:"guarantees" m_votes)
let passing_full = lazy (run_full ~seed:"guarantees" [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 1) ])

let names_alone guarantee run break () =
  let p, r = Lazy.force run in
  no_violations p r;
  Alcotest.(check (list string)) "named alone" [ Guarantees.name guarantee ] (broken p (break r))

let short_receipt (r : Election.result) =
  { r with Election.receipts_ok = r.Election.receipts_ok - 1 }

let success_not_agreed (r : Election.result) =
  { r with Election.successes = (0, "not a cast code") :: r.Election.successes }

let conflicting_ucert (r : Election.result) =
  { r with Election.ucert_conflicts = [ (0, "one code", "another code") ] }

(* the second collector's set loses its first vote *)
let diverging_sets (r : Election.result) =
  match r.Election.vc_submit_sets with
  | first :: (node, _ :: set) :: rest ->
    { r with Election.vc_submit_sets = first :: (node, set) :: rest }
  | _ -> Alcotest.fail "fewer than two non-empty vote sets"

let tally_off_by_one (r : Election.result) =
  match r.Election.tally with
  | Some t ->
    let t = Array.copy t in
    t.(0) <- t.(0) + 1;
    { r with Election.tally = Some t }
  | None -> Alcotest.fail "no tally"

(* one board is below the fb + 1 read quorum *)
let one_board (r : Election.result) =
  match r.Election.bb_nodes with
  | bb :: _ -> { r with Election.bb_nodes = [ bb ] }
  | [] -> Alcotest.fail "no boards"

(* Serial 0 is cast for choices 0 and 1, serial 1 for 2: either of the
   first two counts, never both, and one choice per cast serial. *)
let test_tally_from_intents () =
  let tally t =
    List.map Guarantees.to_string
      (Guarantees.tally ~options:3 ~intents:[ (0, 0); (0, 1); (1, 2) ] t)
  in
  Alcotest.(check (list string)) "first choice" [] (tally (Some [| 1; 0; 1 |]));
  Alcotest.(check (list string)) "second choice" [] (tally (Some [| 0; 1; 1 |]));
  Alcotest.(check int) "both choices" 1 (List.length (tally (Some [| 1; 1; 1 |])));
  Alcotest.(check int) "a serial uncounted" 1 (List.length (tally (Some [| 1; 0; 0 |])));
  Alcotest.(check int) "no tally" 1 (List.length (tally None))

(* --- retry backoff -------------------------------------------------------- *)

let test_retry_delay_growth () =
  let rng = Drbg.create ~seed:"retry" in
  let d k = Voter.retry_delay ~jitter:0. rng ~patience:0.5 ~attempt:k in
  Alcotest.(check (float 1e-9)) "attempt 1 = patience" 0.5 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles" 1.0 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 3 doubles again" 2.0 (d 3);
  Alcotest.(check (float 1e-9)) "attempt 10 capped at 8x" 4.0 (d 10);
  Alcotest.(check (float 1e-9)) "attempt 0 clamps to 1" 0.5 (d 0)

let test_retry_delay_jitter_bounds () =
  let rng = Drbg.create ~seed:"retry-jitter" in
  for attempt = 1 to 8 do
    let base = Voter.retry_delay ~jitter:0. rng ~patience:0.3 ~attempt in
    for _ = 1 to 50 do
      let d = Voter.retry_delay ~jitter:0.1 rng ~patience:0.3 ~attempt in
      Alcotest.(check bool) "within [base, base*1.1)" true (d >= base && d < base *. 1.1)
    done
  done

let test_retry_delay_deterministic () =
  let seq seed =
    let rng = Drbg.create ~seed in
    List.init 6 (fun k -> Voter.retry_delay rng ~patience:1.0 ~attempt:(k + 1))
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same delays" (seq "det") (seq "det")

(* --- the node table behind crash-restart ---------------------------------- *)

(* (label, power losses) of every device a run lists, in its order *)
let device_crashes (r : Election.result) =
  List.map (fun (label, b) -> (label, Mem.crashes b)) r.Election.devices

let cycle node = Fault_plan.crash ~node ~at:0.005 ~recover:0.25 ()

(* a client is not a protocol node: crashing it makes the run no more
   durable than a fault-free one *)
let test_client_crash_no_devices () =
  let p = Election.default_params m_cfg ~votes:[] in
  let client0 = Election.trustee_net_node p (m_cfg.Types.nt - 1) + 1 in
  let _, r = run_modeled ~faults:[ cycle client0 ] m_votes in
  Alcotest.(check int) "all receipts" 12 r.Election.receipts_ok;
  Alcotest.(check (list (pair string int))) "no devices" [] (device_crashes r)

(* a Byzantine collector is never restarted, yet keeps its device *)
let test_byzantine_crash_restarts_nothing () =
  let _, r =
    run_modeled ~byzantine_vc:[ (1, Election.Silent) ] ~faults:[ cycle 1 ] ~patience:1.0
      m_votes
  in
  Alcotest.(check int) "all receipts" 12 r.Election.receipts_ok;
  Alcotest.(check (list (pair string int))) "collectors only, none cycled"
    [ ("vc0", 0); ("vc1", 0); ("vc2", 0); ("vc3", 0) ] (device_crashes r)

(* with full crypto every kind is hosted: net-id order, and exactly the
   three crashed nodes power-cycled *)
let test_full_crash_lists_every_node () =
  let p = Election.default_params small_cfg ~votes:[] in
  let faults =
    [ cycle (Election.vc_net_node p 1);
      Fault_plan.crash ~node:(Election.bb_net_node p 0) ~at:0.02 ~recover:0.3 ();
      Fault_plan.crash ~node:(Election.trustee_net_node p 2) ~at:0.05 ~recover:0.35 () ]
  in
  let votes = [ (0, 0); (1, 1); (2, 2); (3, 0) ] in
  let _, r = run_full ~faults votes in
  Alcotest.(check int) "all receipts" 4 r.Election.receipts_ok;
  Alcotest.(check (list (pair string int))) "every node, in id order"
    [ ("vc0", 0); ("vc1", 1); ("vc2", 0); ("vc3", 0);
      ("bb0", 1); ("bb1", 0); ("bb2", 0);
      ("trustee0", 0); ("trustee1", 0); ("trustee2", 1) ]
    (device_crashes r)

(* --- suite ---------------------------------------------------------------- *)

let () =
  Alcotest.run "chaos"
    [ ( "within-threshold",
        [ Alcotest.test_case "silent VC" `Quick
            (test_behavior_within_threshold Election.Silent);
          Alcotest.test_case "drop-receipts VC" `Quick
            (test_behavior_within_threshold Election.Drop_receipts);
          Alcotest.test_case "byzantine-consensus VC" `Quick
            (test_behavior_within_threshold Election.Byzantine_consensus);
          Alcotest.test_case "equivocating VC + doubled serial" `Quick
            test_equivocate_within_threshold;
          Alcotest.test_case "corrupt-shares VC (full crypto)" `Slow
            (test_full_behavior_within_threshold Election.Corrupt_shares);
          Alcotest.test_case "malformed-wire VC (full crypto)" `Slow
            (test_full_behavior_within_threshold Election.Malformed_wire);
          Alcotest.test_case "misplaced-shares VC (full crypto)" `Slow
            (test_full_behavior_within_threshold Election.Misplaced_shares) ] );
      ( "over-threshold",
        [ Alcotest.test_case "fv+1 equivocators detected" `Quick
            test_overthreshold_equivocate_detected;
          Alcotest.test_case "fv equivocators: no false positives" `Quick
            test_within_threshold_no_false_positives ] );
      ( "byzantine-bb",
        [ Alcotest.test_case "fb tampered BB nodes masked" `Slow test_byzantine_bb_masked ] );
      ( "guarantees",
        [ Alcotest.test_case "liveness: a receipt short" `Quick
            (names_alone Guarantees.Liveness passing_modeled short_receipt);
          Alcotest.test_case "receipt contract: success not agreed" `Quick
            (names_alone Guarantees.Receipt_contract passing_modeled success_not_agreed);
          Alcotest.test_case "UCERT uniqueness: a conflict" `Quick
            (names_alone Guarantees.Ucert_uniqueness passing_modeled conflicting_ucert);
          Alcotest.test_case "vote-set agreement: sets diverge" `Quick
            (names_alone Guarantees.Vote_set_agreement passing_modeled diverging_sets);
          Alcotest.test_case "tally: off by one" `Quick
            (names_alone Guarantees.Tally passing_modeled tally_off_by_one);
          Alcotest.test_case "board audit: one board (full crypto)" `Slow
            (names_alone Guarantees.Board_audit passing_full one_board);
          Alcotest.test_case "tally alternatives from intents" `Quick test_tally_from_intents ] );
      ( "node-table",
        [ Alcotest.test_case "client crash: no devices" `Quick test_client_crash_no_devices;
          Alcotest.test_case "byzantine crash restarts nothing" `Quick
            test_byzantine_crash_restarts_nothing;
          Alcotest.test_case "full crypto lists every node" `Slow
            test_full_crash_lists_every_node ] );
      ( "retry-backoff",
        [ Alcotest.test_case "exponential growth and cap" `Quick test_retry_delay_growth;
          Alcotest.test_case "jitter bounds" `Quick test_retry_delay_jitter_bounds;
          Alcotest.test_case "deterministic in the DRBG" `Quick test_retry_delay_deterministic ] )
    ]
