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
module Node_source = Ddemos.Node_source
module Auditor = Ddemos.Auditor
module Voter = Ddemos.Voter
module Election_store = Ddemos.Election_store
module Drbg = Dd_crypto.Drbg
module Device = Dd_store.Device
module Segment = Dd_segment.Segment

let cfg =
  { Types.default_config with
    Types.election_id = "fraud-demo"; Types.n_voters = 4; Types.m_options = 3 }

let votes =
  [ { Election.vi_serial = 0; vi_choice = 1 };
    { Election.vi_serial = 1; vi_choice = 0 };
    { Election.vi_serial = 2; vi_choice = 2 } ]

(* The EA seals an honest election, then attacks what it sealed: it
   swaps positions 0 and 1 of ballot 0 part A on the BB (rewriting that
   record and re-sealing the board segment) and in every trustee's
   shares, leaving the encrypted vote codes in place: vote codes now
   point at the wrong option encodings. *)
let tampered_source ~seed =
  let devices = Device.(by_name (fun _ -> Mem.device (Mem.create ()))) in
  let layout = Election_store.write_setup devices cfg ~seed in
  let bb = layout.Election_store.l_bb in
  let records = Option.get (Segment.read_all (devices Election_store.bb_segment) bb) in
  let ballot = Option.get (Election_store.decode_bb_ballot records.(0)) in
  let a = ballot.Ea.bb_parts.(0) in
  let e0 = a.(0) and e1 = a.(1) in
  a.(0) <- { e1 with Ea.enc_code = e0.Ea.enc_code };
  a.(1) <- { e0 with Ea.enc_code = e1.Ea.enc_code };
  records.(0) <- Election_store.encode_bb_ballot ballot;
  let board = Device.Mem.device (Device.Mem.create ()) in
  let w =
    Segment.create_writer ~chunk_size:bb.Segment.chunk_size board
      ~kind:Election_store.bb_segment
  in
  Array.iter (Segment.append w) records;
  let l_bb = Segment.seal w in
  (devices Election_store.bb_segment).Device.log_reset (board.Device.log_contents ());
  let src = Node_source.of_layout ~devices { layout with Election_store.l_bb } in
  let keys, init_for = Option.get src.Node_source.sv_trustees in
  let init_for i =
    let ti = init_for i in
    let sh = ti.Ea.t_ballots.(0).(0).Ea.t_shares in
    let tmp = sh.(0) in
    sh.(0) <- sh.(1);
    sh.(1) <- tmp;
    ti
  in
  { src with Node_source.sv_trustees = Some (keys, init_for) }

(* find a run seed under which voter 0's coin picks part B, so part A
   (the tampered one) is the audited part *)
let seed_with_part_b (src : Node_source.t) =
  let rec go k =
    let seed = Printf.sprintf "fraud-run-%d" k in
    let rng = Drbg.create ~seed:(Printf.sprintf "client|%s|0" seed) in
    let plan = Voter.make_plan rng ~ballot:(src.Node_source.sv_ballot_for 0) ~choice:1 in
    if plan.Voter.part = Types.B then (seed, plan) else go (k + 1)
  in
  go 0

let run_and_audit ~label src =
  let seed, plan = seed_with_part_b src in
  let r =
    Election.run
      { (Election.default_params ~fidelity:(Election.Source src) cfg ~votes) with
        Election.seed; concurrent_clients = 1 }
  in
  Printf.printf "%s: %d receipts issued — the voter sees nothing wrong\n%!" label
    r.Election.receipts_ok;
  match Auditor.assemble ~cfg r.Election.bb_nodes with
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
  let honest_verdict =
    run_and_audit ~label:"honest run" (Node_source.in_memory cfg ~seed:"fraud-honest")
  in

  print_endline "=== malicious Election Authority (modification attack) ===";
  let evil_verdict =
    run_and_audit ~label:"tampered run" (tampered_source ~seed:"fraud-evil")
  in

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
