(* Chaos-harness tests: the adversary model and fault plans exercised
   end-to-end, asserting the paper's threshold guarantees.
   - every Byzantine VC behavior with at most fv corrupt collectors
     still yields correct receipts and vote-set agreement,
   - fv + 1 equivocators produce a *detected* safety violation
     (conflicting valid UCERTs / diverging honest vote sets),
   - fb Byzantine BB nodes are masked by fb + 1 majority reads and a
     passing audit,
   - Voter.retry_delay backoff arithmetic. *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Auditor = Ddemos.Auditor
module Bb_reader = Ddemos.Bb_reader
module Voter = Ddemos.Voter
module Fault_plan = Dd_sim.Fault_plan
module Drbg = Dd_crypto.Drbg

let small_cfg = { Types.default_config with Types.n_voters = 5; Types.m_options = 3 }

let votes_of l = List.map (fun (s, c) -> { Election.vi_serial = s; Election.vi_choice = c }) l

(* Shared full-crypto setup (EA setup is the expensive part). *)
let setup = lazy (Ea.setup small_cfg ~seed:"chaos-test")

let run_full ?(seed = "chaos-run") ?(byzantine_vc = []) ?(byzantine_bb = []) votes =
  let p =
    Election.default_params
      ~fidelity:(Election.Source (Node_source.of_setup (Lazy.force setup)))
      small_cfg ~votes:(votes_of votes)
  in
  Election.run
    { p with Election.seed; concurrent_clients = 3; byzantine_vc; byzantine_bb;
             voter_patience = 2.0 }

let m_cfg = { Types.default_config with Types.n_voters = 24 }

let run_modeled ?(seed = "chaos-run") ?(byzantine_vc = []) ?(faults = Fault_plan.none)
    ?(blacklist_rounds = 1) ?(patience = 2.0) votes =
  let p = Election.default_params m_cfg ~votes:(votes_of votes) in
  Election.run
    { p with Election.seed; concurrent_clients = 6; byzantine_vc; faults;
             blacklist_rounds; voter_patience = patience }

let m_votes = List.init 12 (fun s -> (s, s mod 3))

let check_agreement what (r : Election.result) =
  match r.Election.vc_submit_sets with
  | [] -> Alcotest.failf "%s: no submissions" what
  | (_, first) :: rest ->
    List.iter
      (fun (node, s) ->
         Alcotest.(check bool) (Printf.sprintf "%s: node %d's set agrees" what node) true
           (List.sort compare s = List.sort compare first))
      rest

(* --- each behavior, at most fv corrupt collectors ----------------------- *)

let test_behavior_within_threshold (behavior : Election.byzantine_behavior) () =
  let r = run_modeled ~byzantine_vc:[ (1, behavior) ] ~patience:1.0 m_votes in
  Alcotest.(check int) "all receipts" 12 r.Election.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check int) "nobody exhausted" 0 r.Election.exhausted;
  Alcotest.(check bool) "no timeout" false r.Election.timed_out;
  Alcotest.(check (list (triple int string string))) "no UCERT conflicts" []
    r.Election.ucert_conflicts;
  check_agreement "sets" r;
  match r.Election.tally with
  | None -> Alcotest.fail "no tally"
  | Some t -> Alcotest.(check (array int)) "tally" r.Election.expected_tally t

(* Corrupt_shares and Malformed_wire need full fidelity: modeled
   ballots skip share-tag verification, so corrupted shares would be
   accepted shape-only; with real crypto the tags reject them and the
   honest quorum still reconstructs every receipt. *)
let test_full_behavior_within_threshold behavior () =
  let votes = [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 1) ] in
  let r = run_full ~byzantine_vc:[ (1, behavior) ] votes in
  Alcotest.(check int) "all receipts" 5 r.Election.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check (list (triple int string string))) "no UCERT conflicts" []
    r.Election.ucert_conflicts;
  check_agreement "sets" r;
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
  let r =
    run_modeled ~byzantine_vc:[ (3, Election.Equivocate) ] ~seed:"equiv" doubled_votes
  in
  (* for each doubled serial one cast wins; the other may be rejected *)
  Alcotest.(check bool) "receipts in range" true
    (r.Election.receipts_ok >= 12 && r.Election.receipts_ok <= 16);
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check (list (triple int string string))) "no UCERT conflicts" []
    r.Election.ucert_conflicts;
  check_agreement "sets" r;
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

let detected (r : Election.result) =
  r.Election.ucert_conflicts <> []
  || (match r.Election.vc_submit_sets with
      | (_, first) :: rest ->
        List.exists (fun (_, s) -> List.sort compare s <> List.sort compare first) rest
      | [] -> true)

(* Whether both codes certify is a race among the honest nodes'
   first-seen endorsements, so detection is per-seed; sweep a small
   deterministic seed set and require the attack to surface. *)
let test_overthreshold_equivocate_detected () =
  let seeds = List.init 10 (Printf.sprintf "overthreshold-%d") in
  let hits = List.filter (fun s -> detected (overthreshold_run s)) seeds in
  Alcotest.(check bool)
    (Printf.sprintf "conflicting UCERTs detected on %d/10 seeds" (List.length hits))
    true
    (hits <> []);
  (* and at least one seed surfaces the conflict via the explicit
     conflicting-UCERT observation, not only via set divergence *)
  Alcotest.(check bool) "explicit UCERT conflict observed" true
    (List.exists (fun s -> (overthreshold_run s).Election.ucert_conflicts <> []) seeds)

(* Within threshold the same doubled-serial load never detects anything
   across the same seeds — the detector has no false positives. *)
let test_within_threshold_no_false_positives () =
  List.iter
    (fun seed ->
       let r = run_modeled ~seed ~byzantine_vc:[ (3, Election.Equivocate) ] doubled_votes in
       Alcotest.(check bool) (seed ^ ": nothing detected") false (detected r))
    (List.init 10 (Printf.sprintf "overthreshold-%d"))

(* --- Byzantine bulletin board, at most fb -------------------------------- *)

let test_byzantine_bb_masked () =
  let votes = [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 1) ] in
  let r = run_full ~byzantine_bb:[ 0 ] votes in
  Alcotest.(check int) "all receipts" 5 r.Election.receipts_ok;
  (match Bb_reader.final_set ~cfg:small_cfg r.Election.bb_nodes with
   | Bb_reader.Agreed set -> Alcotest.(check int) "five votes in final set" 5 (List.length set)
   | Bb_reader.No_majority -> Alcotest.fail "no final-set majority");
  (match Bb_reader.tally ~cfg:small_cfg r.Election.bb_nodes with
   | Bb_reader.Agreed t -> Alcotest.(check (array int)) "tally" [| 1; 3; 1 |] t
   | Bb_reader.No_majority -> Alcotest.fail "no tally majority");
  match Auditor.assemble ~cfg:small_cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no audit view despite an honest majority"
  | Some view -> Alcotest.(check bool) "audit passes" true (Auditor.all_ok (Auditor.audit view))

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
            (test_full_behavior_within_threshold Election.Malformed_wire) ] );
      ( "over-threshold",
        [ Alcotest.test_case "fv+1 equivocators detected" `Quick
            test_overthreshold_equivocate_detected;
          Alcotest.test_case "fv equivocators: no false positives" `Quick
            test_within_threshold_no_false_positives ] );
      ( "byzantine-bb",
        [ Alcotest.test_case "fb tampered BB nodes masked" `Slow test_byzantine_bb_masked ] );
      ( "retry-backoff",
        [ Alcotest.test_case "exponential growth and cap" `Quick test_retry_delay_growth;
          Alcotest.test_case "jitter bounds" `Quick test_retry_delay_jitter_bounds;
          Alcotest.test_case "deterministic in the DRBG" `Quick test_retry_delay_deterministic ] )
    ]
