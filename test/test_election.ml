(* Integration tests: complete elections over the simulator, honest and
   Byzantine, full-crypto and modeled, including the paper's security
   properties exercised end-to-end:
   - liveness (receipts under fv Byzantine VC nodes, Theorem 1),
   - safety (receipt implies inclusion in the agreed set, Theorem 2),
   - E2E verifiability (a cheating EA is caught by audit, Theorem 3). *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Auditor = Ddemos.Auditor
module Voter = Ddemos.Voter
module Ballot_gen = Ddemos.Ballot_gen
module Drbg = Dd_crypto.Drbg

let small_cfg = { Types.default_config with Types.n_voters = 5; Types.m_options = 3 }

let votes_of l = List.map (fun (s, c) -> { Election.vi_serial = s; Election.vi_choice = c }) l

let check_tally what expected (r : Election.result) =
  match r.Election.tally with
  | None -> Alcotest.failf "%s: no tally" what
  | Some t -> Alcotest.(check (array int)) what expected t

(* Shared full-crypto setup (EA setup is the expensive part). *)
let setup = lazy (Ea.setup small_cfg ~seed:"itest")

let run_full ?(seed = "run") ?byzantine_vc ?patience ?end_after votes =
  let p =
    Election.default_params
      ~fidelity:(Election.Source (Node_source.of_setup (Lazy.force setup)))
      small_cfg ~votes:(votes_of votes)
  in
  let p = { p with Election.seed; concurrent_clients = 3 } in
  let p = match byzantine_vc with Some b -> { p with Election.byzantine_vc = b } | None -> p in
  let p = match patience with Some d -> { p with Election.voter_patience = d } | None -> p in
  let p = match end_after with Some t -> { p with Election.end_after = Some t } | None -> p in
  Election.run p

(* --- honest path -------------------------------------------------------- *)

let test_honest_election () =
  let r = run_full [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 1) ] in
  Alcotest.(check int) "all receipts" 5 r.Election.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  Alcotest.(check int) "no rejections" 0 r.Election.rejections;
  check_tally "tally" [| 1; 3; 1 |] r;
  (* all honest VC nodes submitted identical sets *)
  (match r.Election.vc_submit_sets with
   | [] -> Alcotest.fail "no submissions"
   | (_, first) :: rest ->
     List.iter (fun (_, s) -> Alcotest.(check bool) "sets agree" true (s = first)) rest);
  (* the full audit passes *)
  match Auditor.assemble ~cfg:small_cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no audit view"
  | Some view ->
    let checks = Auditor.audit view in
    Alcotest.(check bool) "audit passes" true (Auditor.all_ok checks)

let test_partial_turnout () =
  let r = run_full ~seed:"partial" [ (1, 2); (3, 0) ] in
  Alcotest.(check int) "two receipts" 2 r.Election.receipts_ok;
  check_tally "tally" [| 1; 0; 1 |] r

let test_safety_receipt_implies_inclusion () =
  let r = run_full ~seed:"safety" [ (0, 1); (2, 2); (4, 0) ] in
  (* Theorem 2's contract: every verified receipt's (serial, code) is in
     every honest node's submitted set *)
  List.iter
    (fun (serial, code) ->
       List.iter
         (fun (node, set) ->
            Alcotest.(check bool)
              (Printf.sprintf "vote %d in node %d's set" serial node) true
              (List.exists (fun (s, c) -> s = serial && String.equal c code) set))
         r.Election.vc_submit_sets)
    r.Election.successes

(* --- Byzantine VC nodes --------------------------------------------------- *)

let test_byzantine_silent_vc () =
  (* fv = 1 silent node: [d]-patient voters retry and all succeed *)
  let r =
    run_full ~seed:"byz1" ~byzantine_vc:[ (2, Election.Silent) ] ~patience:5.
      [ (0, 0); (1, 1); (2, 2); (3, 1); (4, 1) ]
  in
  Alcotest.(check int) "all receipts despite fault" 5 r.Election.receipts_ok;
  check_tally "tally" [| 1; 3; 1 |] r

let test_byzantine_drop_receipts () =
  let r =
    run_full ~seed:"byz2" ~byzantine_vc:[ (0, Election.Drop_receipts) ] ~patience:5.
      [ (0, 2); (1, 2); (2, 0) ]
  in
  Alcotest.(check int) "all receipts" 3 r.Election.receipts_ok;
  check_tally "tally" [| 1; 0; 2 |] r

let test_interrupted_election_agreement () =
  (* cut the election short while requests are in flight: whatever the
     consensus decides, all honest VC nodes must submit the same set,
     and every receipted vote must be included *)
  let r =
    run_full ~seed:"cut" ~end_after:0.02
      [ (0, 0); (1, 1); (2, 2); (3, 0); (4, 1) ]
  in
  (match r.Election.vc_submit_sets with
   | [] -> Alcotest.fail "no submissions"
   | (_, first) :: rest ->
     List.iter (fun (_, s) -> Alcotest.(check bool) "agreement" true (s = first)) rest);
  List.iter
    (fun (serial, code) ->
       List.iter
         (fun (_, set) ->
            Alcotest.(check bool) "receipted vote included" true
              (List.exists (fun (s, c) -> s = serial && String.equal c code) set))
         r.Election.vc_submit_sets)
    r.Election.successes

(* --- voter behaviours ------------------------------------------------------- *)

let test_invalid_vote_code_rejected () =
  (* craft a direct protocol-level check through a modeled run: a voter
     with a bogus code gets rejected and the tally ignores it *)
  let cfg = { small_cfg with Types.n_voters = 5 } in
  let p = Election.default_params cfg ~votes:[ { Election.vi_serial = 0; vi_choice = 0 } ] in
  (* choice out of range is filtered from the expected tally; instead
     test at the Voter level *)
  ignore p;
  let ballot = Ballot_gen.voter_ballot ~seed:"vb" ~serial:0 ~m:3 in
  let rng = Drbg.create ~seed:"voterplan" in
  let plan = Voter.make_plan rng ~ballot ~choice:1 in
  Alcotest.(check bool) "receipt validation catches junk" false
    (Voter.receipt_valid plan "12345678");
  Alcotest.(check bool) "correct receipt accepted" true
    (Voter.receipt_valid plan (Voter.expected_receipt plan))

let test_voter_blacklist_exhaustion () =
  let rng = Drbg.create ~seed:"bl" in
  Alcotest.(check bool) "picks none when all blacklisted" true
    (Voter.pick_node rng ~nv:4 ~blacklist:[ 0; 1; 2; 3 ] = None);
  match Voter.pick_node rng ~nv:4 ~blacklist:[ 0; 1; 2 ] with
  | Some 3 -> ()
  | _ -> Alcotest.fail "must pick the only remaining node"

(* --- the voter pool, driven with fake effects --------------------------------- *)

module Pool = Voter.Pool

let pool_ballot serial = Ballot_gen.voter_ballot ~seed:"pool-test" ~serial ~m:3

(* A pool whose sends are recorded (newest first), whose patience
   timers queue up until a test fires them, and whose backoff waits
   run at once. *)
let fake_pool ?policy ?(clients = 1) ~nv intents =
  let sent = ref [] and timers = Queue.create () and finished = ref false in
  let fx =
    { Pool.send =
        (fun ~client ~node ~req ~serial ~vote_code ->
           sent := (client, node, req, serial, vote_code) :: !sent);
      arm_patience = (fun ~delay:_ k -> Queue.add k timers);
      wait = (fun ~delay:_ k -> k ());
      now = (fun () -> 0.);
      finished = (fun () -> finished := true) }
  in
  let pool =
    Pool.create ?policy ~seed:"pool-test" ~clients ~nv ~ballot_for:pool_ballot fx
      (List.map (fun (serial, choice) -> { Pool.serial; choice }) intents)
  in
  for c = 0 to Pool.clients pool - 1 do
    Pool.start pool c
  done;
  (pool, sent, timers, finished)

(* the receipt printed next to [code] on [serial]'s ballot *)
let printed_receipt serial code =
  let b = pool_ballot serial in
  let lines =
    Array.append (Types.ballot_part b Types.A).Types.lines
      (Types.ballot_part b Types.B).Types.lines
  in
  match Array.find_opt (fun l -> l.Types.vote_code = code) lines with
  | Some l -> l.Types.receipt
  | None -> Alcotest.fail "code not on the ballot"

let test_pool_bad_receipt_resubmits () =
  let pool, sent, _, finished = fake_pool ~nv:4 [ (0, 1) ] in
  let c, node1, req1, serial, code = List.hd !sent in
  Pool.on_reply pool ~client:c ~req:req1 (Types.Receipt "forged!!");
  Alcotest.(check int) "bad receipt counted" 1 (Pool.receipts_bad pool);
  let _, node2, req2, _, code2 = List.hd !sent in
  Alcotest.(check bool) "resubmitted to another node" true (node2 <> node1);
  Alcotest.(check bool) "as a new request" true (req2 <> req1);
  Alcotest.(check string) "same vote code" code code2;
  Pool.on_reply pool ~client:c ~req:req2 (Types.Receipt (printed_receipt serial code));
  Alcotest.(check int) "receipt verified" 1 (Pool.receipts_ok pool);
  Alcotest.(check (list (pair int string))) "cast" [ (serial, code) ] (Pool.successes pool);
  Alcotest.(check (array int)) "second attempt" [| 0; 1 |] (Pool.attempt_counts pool);
  Alcotest.(check bool) "finished" true !finished

let test_pool_exhausted_after_rounds () =
  let policy = { Voter.patience = 1.; cap = 8.; blacklist_rounds = 2 } in
  let pool, sent, timers, finished = fake_pool ~policy ~nv:3 [ (0, 0) ] in
  (* every submission times out *)
  while not (Queue.is_empty timers) do
    (Queue.pop timers) ()
  done;
  let nodes = List.rev_map (fun (_, node, _, _, _) -> node) !sent in
  Alcotest.(check int) "every node, once per round" 6 (List.length nodes);
  let round k = List.sort compare (List.filteri (fun i _ -> i / 3 = k) nodes) in
  Alcotest.(check (list int)) "round 1" [ 0; 1; 2 ] (round 0);
  Alcotest.(check (list int)) "round 2" [ 0; 1; 2 ] (round 1);
  Alcotest.(check int) "abandoned" 1 (Pool.exhausted pool);
  Alcotest.(check int) "nothing in flight" 0 (Pool.in_flight pool);
  Alcotest.(check bool) "finished" true !finished

(* Byzantine nodes answering with forged receipts use up the rounds
   exactly like silent ones: the bad-receipt resubmission stays in its
   round, so the voter gives up after [blacklist_rounds] passes. *)
let test_pool_bad_receipts_exhaust_rounds () =
  let policy = { Voter.patience = 1.; cap = 8.; blacklist_rounds = 2 } in
  let pool, sent, _, finished = fake_pool ~policy ~nv:3 [ (0, 0) ] in
  let max_sends = 20 in
  let rec forge answered =
    if Pool.exhausted pool = 0 && answered < max_sends then begin
      let c, _, req, _, _ = List.hd !sent in
      Pool.on_reply pool ~client:c ~req (Types.Receipt "forged!!");
      forge (answered + 1)
    end
  in
  forge 0;
  Alcotest.(check int) "abandoned" 1 (Pool.exhausted pool);
  Alcotest.(check int) "every node, once per round" 6 (List.length !sent);
  Alcotest.(check int) "every receipt bad" 6 (Pool.receipts_bad pool);
  Alcotest.(check int) "nothing in flight" 0 (Pool.in_flight pool);
  Alcotest.(check bool) "finished" true !finished

let test_pool_stale_and_misrouted_replies () =
  let pool, sent, timers, _ = fake_pool ~clients:2 ~nv:4 [ (0, 1); (1, 2) ] in
  let mine (c, _, _, _, _) = c = 0 in
  let _, _, req1, serial, code = List.find mine !sent in
  (* client 0's patience expires first: it resubmits elsewhere *)
  (Queue.pop timers) ();
  let _, _, req2, _, _ = List.find mine !sent in
  Alcotest.(check bool) "resubmitted" true (req2 <> req1);
  let receipt = Types.Receipt (printed_receipt serial code) in
  Pool.on_reply pool ~client:0 ~req:req1 receipt;
  Alcotest.(check int) "stale reply ignored" 0 (Pool.receipts_ok pool);
  Pool.on_reply pool ~client:1 ~req:req2 receipt;
  Alcotest.(check int) "misrouted reply ignored" 0 (Pool.receipts_ok pool);
  Alcotest.(check int) "both still in flight" 2 (Pool.in_flight pool);
  Pool.on_reply pool ~client:0 ~req:req2 receipt;
  Alcotest.(check int) "the live request counts" 1 (Pool.receipts_ok pool);
  Alcotest.(check (array int)) "second attempt" [| 0; 1 |] (Pool.attempt_counts pool)

(* --- malicious EA caught by audit (E2E verifiability) ------------------------ *)

let tampered_setup () =
  (* the EA swaps the option-encoding commitments of positions 0 and 1
     in part A of ballot 0 (commitments, VSS aux, ZK proofs, and trustee
     shares all move consistently) but leaves the encrypted vote codes
     in place: vote codes now point at the wrong options — the paper's
     "modification attack". *)
  let s = Ea.setup small_cfg ~seed:"evil" in
  let swap_bb (parts : Ea.bb_part_entry array array) =
    let a = parts.(0) in
    let e0 = a.(0) and e1 = a.(1) in
    a.(0) <- { e1 with Ea.enc_code = e0.Ea.enc_code };
    a.(1) <- { e0 with Ea.enc_code = e1.Ea.enc_code }
  in
  swap_bb s.Ea.bb_ballots.(0).Ea.bb_parts;
  Array.iter
    (fun (ti : Ea.trustee_init) ->
       let part = ti.Ea.t_ballots.(0).(0) in
       let sh = part.Ea.t_shares in
       let tmp = sh.(0) in
       sh.(0) <- sh.(1);
       sh.(1) <- tmp)
    s.Ea.trustee_init;
  s

let test_malicious_ea_detected () =
  let s = tampered_setup () in
  (* voter 0 votes with part B (so part A is audited), others as usual *)
  let votes = votes_of [ (0, 1); (1, 0); (2, 2) ] in
  let p =
    Election.default_params ~fidelity:(Election.Source (Node_source.of_setup s)) small_cfg
      ~votes
  in
  (* try a few seeds until voter 0's coin picks part B; the plan
     derivation is deterministic per seed *)
  let rec find_seed k =
    if k > 20 then Alcotest.fail "no seed put voter 0 on part B"
    else begin
      let seed = Printf.sprintf "evilrun%d" k in
      let rng = Drbg.create ~seed:(Printf.sprintf "client|%s|0" seed) in
      let ballot = s.Ea.ballots.(0) in
      let plan = Voter.make_plan rng ~ballot ~choice:1 in
      if plan.Voter.part = Types.B then (seed, plan) else find_seed (k + 1)
    end
  in
  let seed, plan = find_seed 0 in
  let r = Election.run { p with Election.seed; concurrent_clients = 1 } in
  Alcotest.(check int) "receipts still issued" 3 r.Election.receipts_ok;
  match Auditor.assemble ~cfg:small_cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no audit view"
  | Some view ->
    (* delegated audit with voter 0's information catches the swap *)
    let info = Voter.audit_info plan in
    let checks = Auditor.audit ~voter_audits:[ info ] view in
    Alcotest.(check bool) "audit detects the modification attack" false
      (Auditor.all_ok checks);
    (* specifically check (g): the unused part mismatch *)
    let g = List.find (fun c -> c.Auditor.name = "g:unused-part-matches") checks in
    Alcotest.(check bool) "check g fails" false g.Auditor.ok

let test_honest_ea_passes_delegated_audit () =
  (* the same delegated audit on an honest run passes *)
  let r = run_full ~seed:"delegated" [ (0, 1); (1, 0) ] in
  let s = Lazy.force setup in
  let rng = Drbg.create ~seed:"client|delegated|0" in
  let plan = Voter.make_plan rng ~ballot:s.Ea.ballots.(0) ~choice:1 in
  match Auditor.assemble ~cfg:small_cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no view"
  | Some view ->
    let checks = Auditor.audit ~voter_audits:[ Voter.audit_info plan ] view in
    Alcotest.(check bool) "delegated audit passes" true (Auditor.all_ok checks)

let test_audit_names_first_offender () =
  (* the batch path (MSM + bisection) and the serial reference path
     must name the same first offending (serial, part) *)
  let module Elgamal = Dd_commit.Elgamal in
  let module Nat = Dd_bignum.Nat in
  let r = run_full ~seed:"offender" [ (0, 0); (1, 1); (2, 2); (3, 1); (4, 0) ] in
  match Auditor.assemble ~cfg:small_cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no audit view"
  | Some view ->
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) view.Auditor.unused_openings []
      |> List.sort (fun (s1, p1) (s2, p2) ->
          compare (s1, Types.part_index p1) (s2, Types.part_index p2))
    in
    (* forge a coordinate's randomness (the message stays 0/1, so only
       the crypto check can catch it) *)
    let tamper (serial, part) =
      let ops = Hashtbl.find view.Auditor.unused_openings (serial, part) in
      let o = ops.(0).(0) in
      ops.(0).(0) <- { o with Elgamal.rand = Nat.add o.Elgamal.rand Nat.one }
    in
    let expected (serial, part) =
      Printf.sprintf "ballot %d part %s: position 0 opening invalid" serial
        (Types.part_label part)
    in
    let first = List.hd keys and last = List.nth keys (List.length keys - 1) in
    tamper last;
    let batch_check = Auditor.check_openings ~batch:true view in
    Alcotest.(check bool) "batch path fails" false batch_check.Auditor.ok;
    Alcotest.(check string) "batch path names the offender" (expected last)
      batch_check.Auditor.detail;
    let serial_check = Auditor.check_openings ~batch:false view in
    Alcotest.(check bool) "serial path fails" false serial_check.Auditor.ok;
    Alcotest.(check string) "serial path agrees" (expected last) serial_check.Auditor.detail;
    (* a second, earlier offender takes precedence on both paths *)
    tamper first;
    Alcotest.(check string) "batch names the smallest key" (expected first)
      (Auditor.check_openings ~batch:true view).Auditor.detail;
    Alcotest.(check string) "serial names the smallest key" (expected first)
      (Auditor.check_openings ~batch:false view).Auditor.detail;
    (* check_zk names its offender the same way on both paths *)
    let vserial, (vpart, _) = List.hd (List.sort compare view.Auditor.voted) in
    Hashtbl.remove view.Auditor.zk_finals (vserial, vpart);
    let expect_zk =
      Printf.sprintf "ballot %d part %s: no ZK final move published" vserial
        (Types.part_label vpart)
    in
    Alcotest.(check string) "zk batch path" expect_zk
      (Auditor.check_zk ~batch:true view).Auditor.detail;
    Alcotest.(check string) "zk serial path" expect_zk
      (Auditor.check_zk ~batch:false view).Auditor.detail;
    (* the parallel path (below the shard threshold here, so it must
       degrade to exactly the serial batch) agrees on everything *)
    let pool = Dd_parallel.Pool.create ~domains:4 () in
    Alcotest.(check string) "parallel openings agree" (expected first)
      (Auditor.check_openings ~pool view).Auditor.detail;
    Alcotest.(check string) "parallel zk agrees" expect_zk
      (Auditor.check_zk ~pool view).Auditor.detail;
    Dd_parallel.Pool.shutdown pool

(* A large enough election that the audit crypto batch (one entry per
   unused-opening position: 32 voters x m=2 = 64) crosses the parallel
   shard threshold, so [par_find_first] genuinely shards across domains
   — verdict and first offender must still match the serial paths. *)
let test_parallel_audit_at_scale () =
  let module Elgamal = Dd_commit.Elgamal in
  let module Nat = Dd_bignum.Nat in
  let cfg = { Types.default_config with Types.n_voters = 32; Types.m_options = 2 } in
  let s = Ea.setup cfg ~seed:"par-audit" in
  let votes = List.init 32 (fun i -> (i, i mod 2)) in
  let p =
    Election.default_params ~fidelity:(Election.Source (Node_source.of_setup s)) cfg
      ~votes:(votes_of votes)
  in
  let r = Election.run { p with Election.seed = "par-audit"; concurrent_clients = 8 } in
  match Auditor.assemble ~cfg r.Election.bb_nodes with
  | None -> Alcotest.fail "no audit view"
  | Some view ->
    let pool = Dd_parallel.Pool.create ~domains:4 () in
    (* clean view: both schedules say everything is fine *)
    Alcotest.(check bool) "serial audit passes" true
      (Auditor.all_ok (Auditor.audit view));
    Alcotest.(check bool) "parallel audit passes" true
      (Auditor.all_ok (Auditor.audit ~pool view));
    (* tamper a middle opening: sharded bisection and serial bisection
       must name the same (serial, part, position) *)
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) view.Auditor.unused_openings []
      |> List.sort (fun (s1, p1) (s2, p2) ->
          compare (s1, Types.part_index p1) (s2, Types.part_index p2))
    in
    let victim = List.nth keys (List.length keys / 2) in
    let ops = Hashtbl.find view.Auditor.unused_openings victim in
    let o = ops.(1).(0) in
    ops.(1).(0) <- { o with Elgamal.rand = Nat.add o.Elgamal.rand Nat.one };
    let serial_check = Auditor.check_openings view in
    let par_check = Auditor.check_openings ~pool view in
    Alcotest.(check bool) "serial catches it" false serial_check.Auditor.ok;
    Alcotest.(check bool) "parallel catches it" false par_check.Auditor.ok;
    Alcotest.(check string) "same first offender" serial_check.Auditor.detail
      par_check.Auditor.detail;
    Dd_parallel.Pool.shutdown pool

(* --- network faults ------------------------------------------------------------ *)

let test_lossy_network_recovered_by_patience () =
  (* 5% message loss everywhere; the protocol has no retransmission
     layer, but [d]-patient voters re-submit through another collector,
     so every voter still gets a receipt *)
  let cfg = { Types.default_config with Types.n_voters = 300 } in
  let votes = List.init 120 (fun i -> { Election.vi_serial = i; vi_choice = i mod 3 }) in
  let p = Election.default_params cfg ~votes in
  let r =
    Election.run
      { p with
        Election.seed = "lossy";
        latency = { Dd_sim.Net.lan with Dd_sim.Net.drop_prob = 0.05 };
        concurrent_clients = 20;
        voter_patience = 2.;
        run_vsc = false }
  in
  Alcotest.(check int) "all receipts despite 5% loss" 120 r.Election.receipts_ok;
  Alcotest.(check bool) "some retries happened" true
    (Array.length r.Election.attempt_counts >= 1)

let test_duplicated_messages_idempotent () =
  (* 20% duplicate delivery: endorsements, shares, announces, and
     consensus messages are all deduplicated, so receipts and the
     agreed set are unaffected *)
  let cfg = { Types.default_config with Types.n_voters = 200 } in
  let votes = List.init 80 (fun i -> { Election.vi_serial = i; vi_choice = i mod 3 }) in
  let p = Election.default_params cfg ~votes in
  let r =
    Election.run
      { p with
        Election.seed = "dup";
        latency = { Dd_sim.Net.lan with Dd_sim.Net.duplicate_prob = 0.2 };
        concurrent_clients = 20 }
  in
  Alcotest.(check int) "all receipts" 80 r.Election.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Election.receipts_bad;
  check_tally "tally under duplication" r.Election.expected_tally r;
  match r.Election.vc_submit_sets with
  | [] -> Alcotest.fail "no submissions"
  | (_, first) :: rest ->
    List.iter (fun (_, s') -> Alcotest.(check bool) "sets agree" true (s' = first)) rest

(* --- modeled fidelity --------------------------------------------------------- *)

let test_modeled_election_medium () =
  let cfg = { Types.default_config with Types.n_voters = 1000; Types.m_options = 4 } in
  let votes = List.init 300 (fun i -> { Election.vi_serial = i * 3; vi_choice = i mod 4 }) in
  let p = Election.default_params cfg ~votes in
  let r = Election.run { p with Election.concurrent_clients = 50 } in
  Alcotest.(check int) "all receipts" 300 r.Election.receipts_ok;
  check_tally "modeled tally" [| 75; 75; 75; 75 |] r;
  Alcotest.(check bool) "phases ordered" true
    (r.Election.phases.Election.t_end <= r.Election.phases.Election.t_vsc_done
     && r.Election.phases.Election.t_vsc_done <= r.Election.phases.Election.t_encrypted_tally
     && r.Election.phases.Election.t_encrypted_tally <= r.Election.phases.Election.t_published)

let test_modeled_with_byzantine () =
  let cfg = { Types.default_config with Types.n_voters = 200; Types.m_options = 2;
              Types.nv = 7; Types.fv = 2 } in
  let votes = List.init 100 (fun i -> { Election.vi_serial = i; vi_choice = i mod 2 }) in
  let p = Election.default_params cfg ~votes in
  let r =
    Election.run
      { p with
        Election.concurrent_clients = 20;
        Election.byzantine_vc = [ (1, Election.Silent); (5, Election.Silent) ];
        Election.voter_patience = 5. }
  in
  Alcotest.(check int) "all receipts with 2 faults" 100 r.Election.receipts_ok;
  check_tally "tally" [| 50; 50 |] r

let test_modeled_deterministic () =
  let cfg = { Types.default_config with Types.n_voters = 50 } in
  let votes = List.init 20 (fun i -> { Election.vi_serial = i; vi_choice = i mod 3 }) in
  let run () =
    let p = Election.default_params cfg ~votes in
    let r = Election.run { p with Election.seed = "det"; concurrent_clients = 5 } in
    (r.Election.receipts_ok, r.Election.messages, r.Election.phases.Election.t_published)
  in
  Alcotest.(check bool) "same seed, same run" true (run () = run ())

let test_wan_same_throughput () =
  (* the paper's WAN finding holds in the CPU-bound regime it measured:
     hundreds of concurrent clients against 4 VC nodes *)
  let cfg = { Types.default_config with Types.n_voters = 4000; Types.m_options = 4 } in
  let votes = List.init 1500 (fun i -> { Election.vi_serial = i; vi_choice = i mod 4 }) in
  let run latency =
    let p = Election.default_params cfg ~votes in
    Election.run { p with Election.latency; concurrent_clients = 750 }
  in
  let lan = run Dd_sim.Net.lan in
  let wan = run (Dd_sim.Net.wan ()) in
  Alcotest.(check int) "lan all" 1500 lan.Election.receipts_ok;
  Alcotest.(check int) "wan all" 1500 wan.Election.receipts_ok;
  (* the paper's WAN finding: throughput within ~25% of LAN *)
  let ratio = wan.Election.throughput /. lan.Election.throughput in
  Alcotest.(check bool)
    (Printf.sprintf "wan/lan throughput ratio %.2f in [0.6, 1.4]" ratio) true
    (ratio > 0.6 && ratio < 1.4)

(* --- whole-system property: random configurations ---------------------------- *)

let prop_random_configs =
  QCheck.Test.make ~name:"random configs: receipts, agreement, tally" ~count:8
    QCheck.(quad (int_range 0 2) (int_range 2 5) (int_range 10 60) (int_range 0 999))
    (fun (nv_idx, m, turnout, seed) ->
       let nv, fv = List.nth [ (4, 1); (7, 2); (10, 3) ] nv_idx in
       let cfg =
         { Types.default_config with
           Types.n_voters = 100; Types.m_options = m; Types.nv; Types.fv;
           Types.election_id = Printf.sprintf "prop-%d" seed }
       in
       let rng = Drbg.create ~seed:(Printf.sprintf "votes%d" seed) in
       let votes =
         List.init turnout (fun i ->
             { Election.vi_serial = i; vi_choice = Drbg.int rng m })
       in
       let p = Election.default_params cfg ~votes in
       let r =
         Election.run
           { p with Election.seed = Printf.sprintf "run%d" seed; concurrent_clients = 10 }
       in
       (* every voter receipted, every honest node submitted the same
          set, and the tally equals the ground truth *)
       r.Election.receipts_ok = turnout
       && r.Election.receipts_bad = 0
       && (match r.Election.vc_submit_sets with
           | [] -> false
           | (_, first) :: rest -> List.for_all (fun (_, s') -> s' = first) rest)
       && r.Election.tally = Some r.Election.expected_tally)

let () =
  Alcotest.run "election"
    [ ("full-crypto",
       [ Alcotest.test_case "honest end-to-end" `Quick test_honest_election;
         Alcotest.test_case "partial turnout" `Quick test_partial_turnout;
         Alcotest.test_case "safety: receipt => included" `Quick test_safety_receipt_implies_inclusion;
         Alcotest.test_case "byzantine silent VC" `Quick test_byzantine_silent_vc;
         Alcotest.test_case "byzantine drops receipts" `Quick test_byzantine_drop_receipts;
         Alcotest.test_case "interrupted: agreement" `Quick test_interrupted_election_agreement ]);
      ("voter",
       [ Alcotest.test_case "receipt validation" `Quick test_invalid_vote_code_rejected;
         Alcotest.test_case "blacklist" `Quick test_voter_blacklist_exhaustion;
         Alcotest.test_case "pool: bad receipt resubmits" `Quick test_pool_bad_receipt_resubmits;
         Alcotest.test_case "pool: exhausted after rounds" `Quick test_pool_exhausted_after_rounds;
         Alcotest.test_case "pool: bad receipts exhaust rounds" `Quick
           test_pool_bad_receipts_exhaust_rounds;
         Alcotest.test_case "pool: stale and misrouted replies" `Quick
           test_pool_stale_and_misrouted_replies ]);
      ("verifiability",
       [ Alcotest.test_case "malicious EA detected" `Quick test_malicious_ea_detected;
         Alcotest.test_case "honest EA passes delegated audit" `Quick test_honest_ea_passes_delegated_audit;
         Alcotest.test_case "audit names first offender" `Quick test_audit_names_first_offender;
         Alcotest.test_case "parallel audit at scale" `Slow test_parallel_audit_at_scale ]);
      ("network-faults",
       [ Alcotest.test_case "5% loss, patience recovers" `Quick
           test_lossy_network_recovered_by_patience;
         Alcotest.test_case "20% duplicates, idempotent" `Quick
           test_duplicated_messages_idempotent ]);
      ("system-property", [ QCheck_alcotest.to_alcotest prop_random_configs ]);
      ("modeled",
       [ Alcotest.test_case "medium election" `Quick test_modeled_election_medium;
         Alcotest.test_case "byzantine nv=7" `Quick test_modeled_with_byzantine;
         Alcotest.test_case "deterministic" `Quick test_modeled_deterministic;
         Alcotest.test_case "WAN ~ LAN throughput" `Quick test_wan_same_throughput ]) ]
