(* Tests for the benchmark's own code: its order statistics, the
   open-loop driver, the report's shape, and the output checks that
   make a broken run fail. *)

open Perfbench
module Types = Ddemos.Types
module Auditor = Ddemos.Auditor
module Ballot_gen = Ddemos.Ballot_gen
module Runtime = Dd_serve.Runtime

let exactly = Alcotest.float 1e-9

let test_percentiles () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check exactly "median" 3. (Quant.median xs);
  Alcotest.check exactly "p0" 1. (Quant.percentile 0. xs);
  Alcotest.check exactly "p25" 2. (Quant.percentile 25. xs);
  Alcotest.check exactly "p100" 5. (Quant.percentile 100. xs);
  Alcotest.check exactly "interpolated median" 1.5 (Quant.median [| 2.; 1. |]);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check exactly "p95 of 1..100" 95.05 (Quant.percentile 95. hundred);
  Alcotest.(check int) "samples beyond p95" 5 (Quant.beyond 95. hundred);
  Alcotest.check_raises "no samples" (Invalid_argument "Quant.percentile: no samples")
    (fun () -> ignore (Quant.median [||]))

let seed = "perfbench-test"
let cfg = { Types.default_config with Types.n_voters = 4; m_options = 3 }
let ballot serial = Ballot_gen.voter_ballot ~seed ~serial ~m:cfg.Types.m_options

let trickle ?(ballot_for = ballot) ~rate () =
  let rt = Runtime.create (Runtime.source_prf cfg ~seed) in
  let arrivals = Trickle.arrivals ~seed ~rate ~m:cfg.Types.m_options cfg.Types.n_voters in
  Trickle.run rt ~step:(fun () -> Runtime.step rt) ~ballot_for ~seed arrivals

(* At a rate far below capacity every vote gets a valid receipt, and a
   vote arriving at an idle cluster is sent on time. *)
let test_trickle_tiny_rate () =
  let r = trickle ~rate:4. () in
  Alcotest.(check int) "valid receipts" cfg.Types.n_voters r.Trickle.valid;
  Alcotest.(check int) "bad, rejected or lost" 0 (r.Trickle.bad + r.Trickle.rejected + r.Trickle.lost);
  Alcotest.(check int) "cast codes" cfg.Types.n_voters (List.length r.Trickle.cast);
  Array.iteri
    (fun i v ->
       let idle_before = i = 0 || v.Probe.v_due >= r.Trickle.votes.(i - 1).Probe.v_done in
       let late = v.Probe.v_sent -. v.Probe.v_due in
       Alcotest.(check bool) (Printf.sprintf "vote %d not early" i) true (late >= 0.);
       if idle_before then
         Alcotest.(check bool)
           (Printf.sprintf "vote %d on time (%.1f ms late)" i (1e3 *. late))
           true (late < 0.05))
    r.Trickle.votes

(* A receipt that does not match the printed ballot is caught. *)
let test_trickle_forged_receipts () =
  let forged serial =
    let b = ballot serial in
    let flip_first s =
      String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s
    in
    let forge (p : Types.ballot_part) =
      { Types.lines =
          Array.map (fun l -> { l with Types.receipt = flip_first l.Types.receipt }) p.Types.lines }
    in
    { b with Types.part_a = forge b.Types.part_a; part_b = forge b.Types.part_b }
  in
  let r = trickle ~ballot_for:forged ~rate:50. () in
  Alcotest.(check int) "no valid receipt" 0 r.Trickle.valid;
  Alcotest.(check int) "every receipt flagged" cfg.Types.n_voters r.Trickle.bad

let small kind ~trace =
  Workloads.run kind (Trace.create ~on:trace) ~seed ~seconds:1 ~state_root:"perfbench-test-state"

let names ms = List.sort compare (List.map (fun (name, _, _) -> name) ms)

(* Every workload reports the same metric names, traced or not. *)
let test_every_workload_reports_every_metric () =
  let runs = List.map (fun (_, kind) -> small kind ~trace:true) Workloads.names in
  List.iter
    (fun r ->
       Alcotest.(check (list string)) "clean run" []
         (List.concat_map Checks.failures r.Workloads.outputs);
       Alcotest.(check int) "no failed votes" 0 r.Workloads.failed)
    runs;
  match runs with
  | [] -> Alcotest.fail "no workloads"
  | first :: others ->
    Alcotest.(check (list string)) "end-to-end names"
      [ "bytes_per_vote"; "frames_per_vote"; "peak_rss_mb"; "setup_s" ]
      (names first.Workloads.end_to_end);
    List.iter
      (fun r ->
         Alcotest.(check (list string)) "end-to-end" (names first.Workloads.end_to_end)
           (names r.Workloads.end_to_end);
         Alcotest.(check (list string)) "per-layer" (names first.Workloads.per_layer)
           (names r.Workloads.per_layer))
      others

(* A deliberately broken output fails the checks, one check at a time. *)
let test_checks_catch_broken_outputs () =
  let o = List.hd (small Workloads.Election_day ~trace:false).Workloads.outputs in
  Alcotest.(check (list string)) "clean run passes" [] (Checks.failures o);
  let e = Option.get o.Checks.election in
  let flip d = Some (d <> Some true) in
  let split =
    let d = Array.map Array.copy o.Checks.decisions in
    d.(1).(0) <- flip d.(1).(0);
    d
  in
  let bump t = let t = Array.copy t in t.(0) <- t.(0) + 1; t in
  let forged = { Auditor.name = "forged"; ok = false; detail = "deliberately broken" } in
  List.iter
    (fun (what, broken) ->
       Alcotest.(check int) what 1 (List.length (Checks.failures broken)))
    [ ("bad receipt", { o with Checks.receipts_bad = 1 });
      ("split decisions", { o with Checks.decisions = split });
      ("wrong tally",
       { o with Checks.election = Some { e with Checks.tally = Option.map bump e.Checks.tally } });
      ("dropped code",
       { o with Checks.election = Some { e with Checks.final_set = Option.map List.tl e.Checks.final_set } });
      ("failed audit",
       { o with Checks.election = Some { e with Checks.audit = forged :: e.Checks.audit } }) ]

let () =
  Alcotest.run "perfbench"
    [ ("quant", [ Alcotest.test_case "percentiles" `Quick test_percentiles ]);
      ("trickle",
       [ Alcotest.test_case "tiny rate: receipts, on time" `Quick test_trickle_tiny_rate;
         Alcotest.test_case "forged receipts caught" `Quick test_trickle_forged_receipts ]);
      ("report",
       [ Alcotest.test_case "every workload, every metric" `Slow
           test_every_workload_reports_every_metric;
         Alcotest.test_case "broken outputs fail" `Quick test_checks_catch_broken_outputs ]) ]
