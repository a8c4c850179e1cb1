(* End-to-end verifiability in action: a malicious Election Authority
   mounts the paper's "modification attack" — after printing the paper
   ballots it swaps two option-encoding commitments on the bulletin
   board, so one voter's vote code silently counts for a different
   option. The voter cannot see this from her receipt (it is valid!),
   but when she delegates her unused ballot part to an auditor, the
   audit catches the EA with probability 1/2 per audited ballot
   (Theorem 3: fraud escapes theta auditors with probability 2^-theta).

   We run the honest control first, then the attack, then print the
   detection probability curve.

   Exits non-zero unless the honest run audits CLEAN and the tampered
   run is caught.

   Run with:  dune exec examples/fraud_audit.exe *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Election = Ddemos.Election
module Auditor = Ddemos.Auditor
module Voter = Ddemos.Voter
module Drbg = Dd_crypto.Drbg

let cfg =
  { Types.default_config with
    Types.election_id = "fraud-demo"; Types.n_voters = 4; Types.m_options = 3 }

let votes =
  [ { Election.vi_serial = 0; vi_choice = 1 };
    { Election.vi_serial = 1; vi_choice = 0 };
    { Election.vi_serial = 2; vi_choice = 2 } ]

(* The EA swaps positions 0 and 1 of ballot 0 part A on the BB and in
   the trustee shares, leaving the encrypted vote codes in place: vote
   codes now point at the wrong option encodings. *)
let tamper (s : Ea.setup) =
  let parts = s.Ea.bb_ballots.(0).Ea.bb_parts in
  let a = parts.(0) in
  let e0 = a.(0) and e1 = a.(1) in
  a.(0) <- { e1 with Ea.enc_code = e0.Ea.enc_code };
  a.(1) <- { e0 with Ea.enc_code = e1.Ea.enc_code };
  Array.iter
    (fun (ti : Ea.trustee_init) ->
       let sh = ti.Ea.t_ballots.(0).(0).Ea.t_shares in
       let tmp = sh.(0) in
       sh.(0) <- sh.(1);
       sh.(1) <- tmp)
    s.Ea.trustee_init

(* find a run seed under which voter 0's coin picks part B, so part A
   (the tampered one) is the audited part *)
let seed_with_part_b (s : Ea.setup) =
  let rec go k =
    let seed = Printf.sprintf "fraud-run-%d" k in
    let rng = Drbg.create ~seed:(Printf.sprintf "client|%s|0" seed) in
    let plan = Voter.make_plan rng ~ballot:s.Ea.ballots.(0) ~choice:1 in
    if plan.Voter.part = Types.B then (seed, plan) else go (k + 1)
  in
  go 0

let run_and_audit ~label (s : Ea.setup) =
  let seed, plan = seed_with_part_b s in
  let r =
    Election.run
      { (Election.default_params ~fidelity:(Election.Full s) cfg ~votes) with
        Election.seed; concurrent_clients = 1 }
  in
  Printf.printf "%s: %d receipts issued — the voter sees nothing wrong\n%!" label
    r.Election.receipts_ok;
  match Auditor.assemble ~cfg ~gctx:s.Ea.gctx r.Election.bb_nodes with
  | None -> print_endline "  (no majority view)"; None
  | Some view ->
    let checks = Auditor.audit ~voter_audits:[ Voter.audit_info plan ] view in
    List.iter
      (fun c ->
         if not c.Auditor.ok then
           Printf.printf "  [FAIL] %s — %s\n" c.Auditor.name c.Auditor.detail)
      checks;
    let clean = Auditor.all_ok checks in
    Printf.printf "  delegated audit verdict: %s\n\n"
      (if clean then "CLEAN" else "FRAUD DETECTED");
    Some clean

let () =
  print_endline "=== honest Election Authority (control) ===";
  let honest = Ea.setup cfg ~seed:"fraud-honest" in
  let honest_verdict = run_and_audit ~label:"honest run" honest in

  print_endline "=== malicious Election Authority (modification attack) ===";
  let evil = Ea.setup cfg ~seed:"fraud-evil" in
  tamper evil;
  let evil_verdict = run_and_audit ~label:"tampered run" evil in

  (* the paper's amplification argument *)
  print_endline "detection probability as auditors accumulate (Theorem 3):";
  List.iter
    (fun theta ->
       Printf.printf "  %2d auditing voters: fraud escapes with probability %.6f\n" theta
         (2. ** float_of_int (-theta)))
    [ 1; 2; 5; 10; 20 ];
  (* the demo is also a check: the honest board must audit clean and
     the tampered one must not *)
  if honest_verdict <> Some true || evil_verdict <> Some false then exit 1
