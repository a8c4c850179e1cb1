(* Chaos harness: sweep seeds over a matrix of fault/adversary
   scenarios and check the paper's end-to-end guarantees on every run.

   Each scenario is a pure function of its seed — the simulator, the
   fault plan, and every adversary draw from one DRBG — so any
   violation line printed here is replayable bit-for-bit with the
   printed command.

   Scenarios are either [Safe] (at most fv Byzantine collectors /
   fb Byzantine board nodes: every invariant must hold on every seed)
   or [Detect] (deliberately over threshold: the harness must *detect*
   the attack — conflicting UCERTs, diverging vote sets, duplicated
   serials, or a wrong/missing tally — on at least one seed, and
   no undetected wrong result may ever pass silently). *)

module Types = Ddemos.Types
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Ea = Ddemos.Ea
module Auditor = Ddemos.Auditor
module Bb_reader = Ddemos.Bb_reader
module Fault_plan = Dd_sim.Fault_plan
open Cmdliner

type expect = Safe | Detect

type scenario = {
  name : string;
  desc : string;
  full_crypto : bool;
  expect : expect;
  doubled : (int * int * int) list;
      (* (serial, first choice, second choice) cast twice concurrently *)
  quorum_sets : bool;
      (* [true]: only Nv - fv collectors need to finish Vote Set
         Consensus (persistent message loss can stall one node forever
         — the sim has no retransmission layer, so the paper's
         reliable-channel assumption is weakened to fair progress of a
         quorum). [false]: every honest collector must submit. *)
  build : seed:string -> Election.params;
}

(* --- modeled-fidelity base: 24 registered, 12 cast, cc=6 ---------------- *)

let m_cfg = { Types.default_config with Types.n_voters = 24 }

let m_votes = List.init 12 (fun s -> { Election.vi_serial = s; vi_choice = s mod 3 })

(* Each doubled serial is cast twice, with different choices, by two
   adjacent clients of the round-robin — the near-simultaneous
   contention the UCERT-uniqueness argument is about. Several doubled
   serials make the equivocation race independent per serial, so an
   over-threshold adversary double-certifies at least one with high
   probability per seed. *)
let doubled_votes doubles =
  let doubled_serials = List.map (fun (s, _, _) -> s) doubles in
  List.concat_map
    (fun (s, c1, c2) ->
       [ { Election.vi_serial = s; vi_choice = c1 };
         { Election.vi_serial = s; vi_choice = c2 } ])
    doubles
  @ List.filter (fun v -> not (List.mem v.Election.vi_serial doubled_serials)) m_votes

let doubles = [ (0, 0, 1); (1, 1, 2); (2, 2, 0); (3, 0, 1) ]

let m_params ~seed =
  let p = Election.default_params m_cfg ~votes:m_votes in
  { p with Election.seed; concurrent_clients = 6; voter_patience = 2.0 }

(* --- full-fidelity base: 5 registered, real crypto ----------------------- *)

let f_cfg = { Types.default_config with Types.n_voters = 5 }

(* One EA setup shared across every full-crypto run; only the run seed
   varies. Forced lazily so `--list` and modeled-only sweeps stay
   instant. *)
let f_setup = lazy (Ea.setup f_cfg ~seed:"chaos-ea")

let f_votes = List.init 5 (fun s -> { Election.vi_serial = s; vi_choice = s mod 3 })

let f_params ~seed =
  let p =
    Election.default_params
      ~fidelity:(Election.Source (Node_source.of_setup (Lazy.force f_setup)))
      f_cfg ~votes:f_votes
  in
  { p with Election.seed; concurrent_clients = 3; voter_patience = 2.0 }

(* --- the scenario matrix ------------------------------------------------- *)

(* Fault windows start at 0.0 on purpose: the first vote is submitted
   at t = 0.001 and a fault-free modeled election finishes in tens of
   milliseconds of virtual time, so a window opening later would miss
   the run entirely. Windows that deny any endorsement quorum (the
   partitions below) also guarantee voting outlasts the window, so
   Vote Set Consensus runs on a healed network. *)
let scenarios : scenario list =
  [ { name = "baseline";
      desc = "no faults, modeled fidelity";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build = (fun ~seed -> m_params ~seed) };
    { name = "silent-vc";
      desc = "one crash-faulty collector (never responds)";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           { (m_params ~seed) with
             Election.byzantine_vc = [ (1, Election.Silent) ]; voter_patience = 1.0 }) };
    { name = "drop-receipts";
      desc = "one collector runs the protocol but never answers voters";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           { (m_params ~seed) with
             Election.byzantine_vc = [ (2, Election.Drop_receipts) ]; voter_patience = 1.0 }) };
    { name = "equivocate";
      desc = "one equivocating collector + four serials cast twice (<= fv: UCERTs stay unique)";
      full_crypto = false; expect = Safe; doubled = doubles; quorum_sets = false;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.votes = doubled_votes doubles;
             byzantine_vc = [ (3, Election.Equivocate) ] }) };
    { name = "byz-consensus";
      desc = "one collector corrupts/withholds Vote Set Consensus traffic";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           { (m_params ~seed) with
             Election.byzantine_vc = [ (0, Election.Byzantine_consensus) ] }) };
    { name = "corrupt-shares";
      desc = "one collector flips bytes in its VOTE_P receipt shares (full crypto)";
      full_crypto = true; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           { (f_params ~seed) with
             Election.byzantine_vc = [ (1, Election.Corrupt_shares) ] }) };
    { name = "malformed-wire";
      desc = "one collector byte-flips every outgoing wire message (full crypto)";
      full_crypto = true; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           { (f_params ~seed) with
             Election.byzantine_vc = [ (2, Election.Malformed_wire) ] }) };
    { name = "byz-bb";
      desc = "one board node serves tampered state; fb+1 majority reads mask it (full crypto)";
      full_crypto = true; expect = Safe; doubled = []; quorum_sets = false;
      build = (fun ~seed -> { (f_params ~seed) with Election.byzantine_bb = [ 0 ] }) };
    { name = "partition-heal";
      desc = "machines {0,1} partitioned off during [0,0.5): no quorum until the heal";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           let m i = Election.vc_machine p i in
           { p with
             Election.faults =
               [ Fault_plan.partition ~machines:[ m 0; m 1 ] ~from_:0. ~until_:0.5 ];
             voter_patience = 0.3; retry_cap = 4.0; blacklist_rounds = 8 }) };
    { name = "crash-recover";
      desc = "one collector power-cycled during [0.005,0.25): cold restart from its WAL";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = true;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.crash ~node:(Election.vc_net_node p 1) ~at:0.005 ~recover:0.25 () ];
             voter_patience = 0.5; blacklist_rounds = 6 }) };
    { name = "crash-restart-midvote";
      desc = "collector killed mid-vote [0.008,0.2): recovery replays accepted votes and UCERTs";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = true;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.crash ~node:(Election.vc_net_node p 2) ~at:0.008 ~recover:0.2 () ];
             voter_patience = 0.5; blacklist_rounds = 6 }) };
    { name = "crash-restart-midconsensus";
      desc = "collector killed around Vote Set Consensus [0.035,0.3), torn tail possible: \
              no equivocating rejoin, the Nv-fv quorum carries the round";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = true;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.crash ~node:(Election.vc_net_node p 1) ~at:0.035 ~recover:0.3 () ];
             voter_patience = 0.5; blacklist_rounds = 6 }) };
    { name = "crash-restart-double";
      desc = "two collectors power-cycled in staggered windows, each cold-restarts from its device";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = true;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.crash ~node:(Election.vc_net_node p 1) ~at:0.008 ~recover:0.15 ();
                 Fault_plan.crash ~node:(Election.vc_net_node p 3) ~at:0.2 ~recover:0.35 () ];
             voter_patience = 0.5; blacklist_rounds = 8 }) };
    { name = "crash-restart-bb";
      desc = "board node killed mid-publication + a trustee power-cycled: journals replay (full crypto)";
      full_crypto = true; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           let p = f_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.crash ~node:(Election.bb_net_node p 0) ~at:0.02 ~recover:0.3 ();
                 Fault_plan.crash ~node:(Election.trustee_net_node p 0) ~at:0.05 ~recover:0.35 () ];
             voter_patience = 0.5; blacklist_rounds = 6 }) };
    { name = "asym-loss";
      desc = "25% inbound loss at one collector for the whole run";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = true;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.link ~dst:(Election.vc_net_node p 2) ~drop:0.25 ~from_:0.
                   ~until_:1e6 () ];
             voter_patience = 0.5; blacklist_rounds = 8 }) };
    { name = "reorder-spike";
      desc = "bounded reordering all run + 50ms latency spike during [0,0.1)";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.faults =
               [ Fault_plan.reorder ~prob:0.3 ~horizon:0.02 ~from_:0. ~until_:1e6;
                 Fault_plan.delay_spike ~extra:0.05 ~from_:0. ~until_:0.1 ];
             voter_patience = 1.0 }) };
    { name = "combo";
      desc = "silent collector + another isolated during [0,0.4) + loss + reordering";
      full_crypto = false; expect = Safe; doubled = []; quorum_sets = false;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.byzantine_vc = [ (1, Election.Silent) ];
             faults =
               [ Fault_plan.partition ~machines:[ Election.vc_machine p 2 ] ~from_:0.
                   ~until_:0.4;
                 Fault_plan.reorder ~prob:0.2 ~horizon:0.01 ~from_:0. ~until_:1e6;
                 Fault_plan.link ~dst:(Election.vc_net_node p 3) ~drop:0.15 ~from_:0.
                   ~until_:0.4 () ];
             voter_patience = 0.3; retry_cap = 4.0; blacklist_rounds = 8 }) };
    { name = "overthreshold-equivocate";
      desc = "fv+1 equivocating collectors + doubled serials: conflicting UCERTs MUST be detected";
      full_crypto = false; expect = Detect; doubled = doubles; quorum_sets = false;
      build =
        (fun ~seed ->
           let p = m_params ~seed in
           { p with
             Election.votes = doubled_votes doubles;
             byzantine_vc = [ (2, Election.Equivocate); (3, Election.Equivocate) ] }) };
    { name = "overthreshold-bb";
      desc = "fb+1 board nodes serve identical tampered state: majority reads MUST fail or mismatch";
      full_crypto = true; expect = Detect; doubled = []; quorum_sets = false;
      build = (fun ~seed -> { (f_params ~seed) with Election.byzantine_bb = [ 0; 1 ] }) } ]

(* --- invariant checking -------------------------------------------------- *)

let tally_str (t : Types.tally) =
  "[" ^ String.concat " " (Array.to_list (Array.map string_of_int t)) ^ "]"

(* All tallies consistent with the cast intents: with a doubled serial
   either concurrently-cast choice may be the one that certifies, so
   every subset of the doubles may flip. *)
let tally_variants cfg votes doubled : Types.tally list =
  let base = Election.expected_tally cfg votes in
  List.fold_left
    (fun acc (_, c1, c2) ->
       acc
       @ List.map
           (fun (t : Types.tally) ->
              let t' = Array.copy t in
              t'.(c1) <- t'.(c1) - 1;
              t'.(c2) <- t'.(c2) + 1;
              t')
           acc)
    [ base ] doubled

let sorted_set s = List.sort compare s

(* Every invariant a [Safe] run must satisfy. Returns the list of
   violations (empty = pass). *)
let check_safe sc (p : Election.params) (r : Election.result) : string list =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.Election.timed_out then add "timed out: hit max_sim_time with events still queued";
  let n_intents = List.length p.Election.votes in
  let n_uniq =
    List.length
      (List.sort_uniq compare (List.map (fun v -> v.Election.vi_serial) p.Election.votes))
  in
  (* Liveness: every honest voter ends up with a valid receipt. With a
     doubled serial only one of its two casts is guaranteed a receipt
     (the other may be rejected as "already voted differently"). *)
  if sc.doubled = [] then begin
    if r.Election.receipts_ok <> n_intents then
      add "receipts: %d valid of %d expected" r.Election.receipts_ok n_intents
  end
  else if r.Election.receipts_ok < n_uniq || r.Election.receipts_ok > n_intents then
    add "receipts: %d valid, expected between %d and %d" r.Election.receipts_ok n_uniq n_intents;
  if r.Election.receipts_bad > 0 then add "%d voters saw a WRONG receipt" r.Election.receipts_bad;
  if r.Election.exhausted > 0 then add "%d voters exhausted all retries" r.Election.exhausted;
  (* Safety: no honest node ever saw two valid UCERTs for one serial. *)
  (match r.Election.ucert_conflicts with
   | [] -> ()
   | (serial, _, _) :: _ as l ->
     add "%d conflicting UCERT(s) observed (first: serial %d)" (List.length l) serial);
  (* Vote Set Consensus: every honest collector submitted, all sets
     identical, no serial twice, and every receipted vote included. *)
  let honest_vc = p.Election.cfg.Types.nv - List.length p.Election.byzantine_vc in
  let required_sets =
    if sc.quorum_sets then
      min honest_vc (p.Election.cfg.Types.nv - p.Election.cfg.Types.fv)
    else honest_vc
  in
  if List.length r.Election.vc_submit_sets < required_sets then
    add "only %d of %d required collectors submitted a vote set"
      (List.length r.Election.vc_submit_sets) required_sets;
  (match r.Election.vc_submit_sets with
   | [] -> add "no collector submitted a vote set at all"
   | (_, first) :: rest ->
     List.iter
       (fun (node, s) ->
          if sorted_set s <> sorted_set first then add "collector %d's vote set disagrees" node)
       rest;
     let serials = List.map fst first in
     if List.length serials <> List.length (List.sort_uniq compare serials) then
       add "a serial appears twice in the agreed vote set";
     List.iter
       (fun (serial, code) ->
          if
            not
              (List.exists
                 (fun (s, c) -> s = serial && String.equal c code)
                 first)
          then add "receipted vote (serial %d) missing from the agreed set" serial)
       r.Election.successes);
  (* Tally: must exist and match one of the cast-consistent variants. *)
  (match r.Election.tally with
   | None -> add "no tally reached fb+1 agreement"
   | Some t ->
     let variants = tally_variants p.Election.cfg p.Election.votes sc.doubled in
     if not (List.exists (fun v -> v = t) variants) then
       add "tally %s not among expected %s" (tally_str t)
         (String.concat " / " (List.map tally_str variants)));
  (* Full crypto: the board must answer majority reads correctly and
     survive a full end-to-end audit. *)
  if sc.full_crypto then begin
    (match Bb_reader.final_set ~cfg:p.Election.cfg r.Election.bb_nodes with
     | Bb_reader.No_majority -> add "board majority read of the final set failed"
     | Bb_reader.Agreed set ->
       (match r.Election.vc_submit_sets with
        | (_, first) :: _ when sorted_set set <> sorted_set first ->
          add "board final set disagrees with the collectors' agreed set"
        | _ -> ()));
    (match Bb_reader.tally ~cfg:p.Election.cfg r.Election.bb_nodes with
     | Bb_reader.No_majority -> add "board majority read of the tally failed"
     | Bb_reader.Agreed t ->
       (match r.Election.tally with
        | Some t' when t = t' -> ()
        | Some _ -> add "board tally read disagrees with the run's tally"
        | None -> ()));
    match Auditor.assemble ~cfg:p.Election.cfg r.Election.bb_nodes with
    | None -> add "auditor could not assemble a majority view"
    | Some view ->
      let checks = Auditor.audit view in
      if not (Auditor.all_ok checks) then
        List.iter
          (fun c ->
             if not c.Auditor.ok then add "audit check failed: %s — %s" c.Auditor.name c.Auditor.detail)
          checks
  end;
  List.rev !errs

(* What counts as *detecting* an over-threshold attack: conflicting
   UCERTs surfaced, honest vote sets diverged, a serial got doubled,
   or the tally is missing/wrong. *)
let detection_signals sc (p : Election.params) (r : Election.result) : string list =
  let signals = ref [] in
  let add fmt = Printf.ksprintf (fun s -> signals := s :: !signals) fmt in
  if r.Election.ucert_conflicts <> [] then
    add "%d conflicting UCERT(s) observed by honest collectors"
      (List.length r.Election.ucert_conflicts);
  (match r.Election.vc_submit_sets with
   | (_, first) :: rest ->
     if List.exists (fun (_, s) -> sorted_set s <> sorted_set first) rest then
       add "honest collectors submitted diverging vote sets";
     let serials = List.map fst first in
     if List.length serials <> List.length (List.sort_uniq compare serials) then
       add "a serial appears twice in a submitted vote set"
   | [] -> add "no collector completed Vote Set Consensus");
  (match r.Election.tally with
   | None -> add "no tally reached fb+1 agreement"
   | Some t ->
     let variants = tally_variants p.Election.cfg p.Election.votes sc.doubled in
     if not (List.exists (fun v -> v = t) variants) then
       add "published tally %s is wrong" (tally_str t));
  if sc.full_crypto then begin
    (match Bb_reader.final_set ~cfg:p.Election.cfg r.Election.bb_nodes with
     | Bb_reader.No_majority -> add "board majority read of the final set failed"
     | Bb_reader.Agreed set ->
       (match r.Election.vc_submit_sets with
        | (_, first) :: _ when sorted_set set <> sorted_set first ->
          add "board final set disagrees with the collectors' set"
        | _ -> ()));
    match Auditor.assemble ~cfg:p.Election.cfg r.Election.bb_nodes with
    | None -> add "auditor could not assemble a majority view"
    | Some view -> if not (Auditor.all_ok (Auditor.audit view)) then add "end-to-end audit failed"
  end;
  List.rev !signals

(* --- the sweep ----------------------------------------------------------- *)

type outcome = {
  sc : scenario;
  runs : int;
  violations : (string * string list) list; (* seed, violations (Safe) *)
  detections : (string * string list) list; (* seed, signals (Detect) *)
}

let replay_cmd sc seed =
  Printf.sprintf "dune exec bin/ddemos_chaos.exe -- --scenario %s --replay-seed %s" sc.name seed

let run_scenario ~verbose ~seeds ~seed_base ~offset ~full_seeds sc =
  let runs = if sc.full_crypto then min seeds full_seeds else seeds in
  let violations = ref [] and detections = ref [] in
  for k = offset to offset + runs - 1 do
    let seed = Printf.sprintf "%s-%d" seed_base k in
    let p = sc.build ~seed in
    let r = Election.run p in
    (match sc.expect with
     | Safe ->
       let errs = check_safe sc p r in
       if errs <> [] then begin
         violations := (seed, errs) :: !violations;
         Printf.printf "  VIOLATION %s seed=%s\n" sc.name seed;
         List.iter (fun e -> Printf.printf "    - %s\n" e) errs;
         Printf.printf "    replay: %s\n%!" (replay_cmd sc seed)
       end
       else if verbose then
         Printf.printf "  ok %s seed=%s (receipts %d, dropped %d)\n%!" sc.name seed
           r.Election.receipts_ok r.Election.dropped
     | Detect ->
       let signals = detection_signals sc p r in
       if signals <> [] then begin
         detections := (seed, signals) :: !detections;
         if verbose then begin
           Printf.printf "  detected %s seed=%s\n" sc.name seed;
           List.iter (fun s -> Printf.printf "    - %s\n" s) signals
         end
       end
       else if verbose then Printf.printf "  undetected %s seed=%s\n%!" sc.name seed)
  done;
  { sc; runs; violations = List.rev !violations; detections = List.rev !detections }

let print_summary outcomes =
  print_newline ();
  Printf.printf "%-26s %-8s %-6s %-6s %s\n" "scenario" "mode" "seeds" "expect" "result";
  Printf.printf "%s\n" (String.make 72 '-');
  let failed = ref false in
  List.iter
    (fun o ->
       let mode = if o.sc.full_crypto then "full" else "modeled" in
       let status =
         match o.sc.expect with
         | Safe ->
           if o.violations = [] then Printf.sprintf "PASS (0 violations)"
           else begin
             failed := true;
             Printf.sprintf "FAIL (%d violations)" (List.length o.violations)
           end
         | Detect ->
           if o.detections <> [] then
             Printf.sprintf "PASS (detected on %d/%d seeds)" (List.length o.detections) o.runs
           else begin
             failed := true;
             "FAIL (attack went undetected on every seed)"
           end
       in
       Printf.printf "%-26s %-8s %-6d %-6s %s\n" o.sc.name mode o.runs
         (match o.sc.expect with Safe -> "safe" | Detect -> "detect")
         status)
    outcomes;
  print_newline ();
  (* First replayable detection, so the over-threshold demo is one
     copy-paste away. *)
  List.iter
    (fun o ->
       match (o.sc.expect, o.detections) with
       | Detect, (seed, signals) :: _ ->
         Printf.printf "detected attack in %s (seed %s):\n" o.sc.name seed;
         List.iter (fun s -> Printf.printf "  - %s\n" s) signals;
         Printf.printf "  replay: %s\n" (replay_cmd o.sc seed)
       | _ -> ())
    outcomes;
  !failed

(* On a violated replay, dump every durable device to real files
   (File_device's dir/name.wal) so the journals behind the violation
   can be inspected offline. *)
let dump_devices sc seed (r : Election.result) =
  match r.Election.devices with
  | [] -> ()
  | devices ->
    let module Mem = Dd_store.Device.Mem in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ddemos-chaos-%s-%s" sc.name seed)
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (label, backing) ->
         let dev = Dd_store.File_device.create ~dir ~name:label in
         dev.Dd_store.Device.log_reset (Mem.durable_log backing);
         Printf.printf "  %-10s crashes=%d torn_bytes=%d log=%dB\n" label
           (Mem.crashes backing) (Mem.torn_bytes backing)
           (String.length (Mem.durable_log backing)))
      devices;
    Printf.printf "device dump: %s\n" dir

let replay sc seed =
  Printf.printf "replaying %s seed=%s (%s)\n" sc.name seed sc.desc;
  let p = sc.build ~seed in
  if p.Election.faults <> Fault_plan.none then
    Printf.printf "fault plan:\n%s\n" (Fault_plan.describe p.Election.faults);
  let r = Election.run p in
  Printf.printf "receipts ok=%d bad=%d exhausted=%d | dropped=%d | timed_out=%b\n"
    r.Election.receipts_ok r.Election.receipts_bad r.Election.exhausted r.Election.dropped
    r.Election.timed_out;
  (match r.Election.tally with
   | Some t -> Printf.printf "tally %s (expected %s)\n" (tally_str t) (tally_str r.Election.expected_tally)
   | None -> print_endline "tally: none agreed");
  List.iter
    (fun (serial, ours, theirs) ->
       Printf.printf "conflicting UCERT on serial %d: %s vs %s\n" serial
         (Dd_crypto.Sha256.hex_of_string ours)
         (Dd_crypto.Sha256.hex_of_string theirs))
    r.Election.ucert_conflicts;
  match sc.expect with
  | Safe ->
    let errs = check_safe sc p r in
    List.iter (fun e -> Printf.printf "violation: %s\n" e) errs;
    if errs = [] then print_endline "all invariants hold"
    else dump_devices sc seed r;
    errs <> []
  | Detect ->
    let signals = detection_signals sc p r in
    List.iter (fun s -> Printf.printf "detected: %s\n" s) signals;
    if signals = [] then begin
      print_endline "attack NOT detected on this seed";
      dump_devices sc seed r
    end;
    signals = []

let main list_only scenario_filter seeds seed_base offset full_seeds replay_seed verbose =
  let selected =
    match scenario_filter with
    | None -> scenarios
    | Some f -> List.filter (fun s -> s.name = f) scenarios
  in
  if selected = [] then begin
    Printf.eprintf "no scenario named %s (try --list)\n"
      (Option.value scenario_filter ~default:"?");
    exit 2
  end;
  if list_only then begin
    List.iter
      (fun s ->
         Printf.printf "%-26s %-8s %-6s %s\n" s.name
           (if s.full_crypto then "full" else "modeled")
           (match s.expect with Safe -> "safe" | Detect -> "detect")
           s.desc)
      scenarios;
    exit 0
  end;
  match replay_seed with
  | Some seed ->
    (match selected with
     | [ sc ] -> exit (if replay sc seed then 1 else 0)
     | _ ->
       prerr_endline "--replay-seed needs exactly one --scenario";
       exit 2)
  | None ->
    Printf.printf "chaos sweep: %d scenario(s), %d seed(s) each (full-crypto capped at %d)\n%!"
      (List.length selected) seeds (min seeds full_seeds);
    let outcomes =
      List.map
        (fun sc ->
           Printf.printf "%s: %s\n%!" sc.name sc.desc;
           run_scenario ~verbose ~seeds ~seed_base ~offset ~full_seeds sc)
        selected
    in
    exit (if print_summary outcomes then 1 else 0)

let cmd =
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.") in
  let scenario =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"NAME" ~doc:"Run only the named scenario.")
  in
  let seeds =
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario.")
  in
  let seed_base =
    Arg.(value & opt string "chaos"
         & info [ "seed-base" ] ~docv:"S" ~doc:"Prefix of the per-run seeds (S-0, S-1, ...).")
  in
  let offset =
    Arg.(value & opt int 0 & info [ "offset" ] ~docv:"K" ~doc:"First seed index.")
  in
  let full_seeds =
    Arg.(value & opt int 25
         & info [ "full-seeds" ] ~docv:"N"
             ~doc:"Cap on seeds for full-crypto scenarios (real crypto is ~100x slower).")
  in
  let replay_seed =
    Arg.(value & opt (some string) None
         & info [ "replay-seed" ] ~docv:"SEED"
             ~doc:"Replay one exact seed of one --scenario, printing every signal.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every run.") in
  Cmd.v
    (Cmd.info "ddemos_chaos" ~version:"1.0.0"
       ~doc:"Seed-sweep chaos harness for the D-DEMOS simulation: Byzantine collectors, \
             tampered boards, partitions, crashes, loss, reordering — checking the paper's \
             safety and liveness guarantees on every run.")
    Term.(const main $ list_only $ scenario $ seeds $ seed_base $ offset $ full_seeds
          $ replay_seed $ verbose)

let () = Stdlib.exit (Cmd.eval cmd)
