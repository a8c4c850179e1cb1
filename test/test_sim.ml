(* Simulator tests: event ordering, determinism, CPU queuing, latency
   models, fault injection, and stats. *)

module Engine = Dd_sim.Engine
module Net = Dd_sim.Net
module Fault_plan = Dd_sim.Fault_plan
module Stats = Dd_sim.Stats

let test_event_ordering () =
  let e = Engine.create ~seed:"order" in
  let log = ref [] in
  Engine.schedule_at e ~at:3. (fun () -> log := 3 :: !log);
  Engine.schedule_at e ~at:1. (fun () -> log := 1 :: !log);
  Engine.schedule_at e ~at:2. (fun () -> log := 2 :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_tie_break_by_insertion () =
  let e = Engine.create ~seed:"tie" in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule_at e ~at:1. (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !log)

let test_nested_scheduling () =
  let e = Engine.create ~seed:"nested" in
  let log = ref [] in
  Engine.schedule_at e ~at:1. (fun () ->
      log := "a" :: !log;
      Engine.schedule_after e ~delay:0.5 (fun () -> log := "b" :: !log));
  Engine.schedule_at e ~at:2. (fun () -> log := "c" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "interleave" [ "a"; "b"; "c" ] (List.rev !log)

let test_run_until () =
  let e = Engine.create ~seed:"until" in
  let fired = ref 0 in
  Engine.schedule_at e ~at:1. (fun () -> incr fired);
  Engine.schedule_at e ~at:10. (fun () -> incr fired);
  let n, outcome = Engine.run ~until:5. e in
  Alcotest.(check int) "one executed" 1 n;
  Alcotest.(check bool) "paused at limit" true (outcome = `Paused);
  Alcotest.(check int) "clock at limit" 5 (int_of_float (Engine.now e));
  let n2, outcome2 = Engine.run e in
  Alcotest.(check int) "second fires on resume" 1 n2;
  Alcotest.(check bool) "drained after resume" true (outcome2 = `Drained);
  Alcotest.(check int) "both fired" 2 !fired

let test_run_drained_before_limit () =
  (* quiescence: the clock stays at the last event, NOT at [until] *)
  let e = Engine.create ~seed:"drained" in
  Engine.schedule_at e ~at:1. ignore;
  let n, outcome = Engine.run ~until:100. e in
  Alcotest.(check int) "one executed" 1 n;
  Alcotest.(check bool) "drained" true (outcome = `Drained);
  Alcotest.(check bool) "clock at last event, not limit" true (Engine.now e = 1.)

let test_past_clamped () =
  let e = Engine.create ~seed:"past" in
  let at = ref 0. in
  Engine.schedule_at e ~at:5. (fun () ->
      Engine.schedule_at e ~at:1. (fun () -> at := Engine.now e));
  ignore (Engine.run e);
  Alcotest.(check bool) "clamped to now" true (!at >= 5.)

let test_determinism () =
  let run () =
    let e = Engine.create ~seed:"det" in
    let net = Net.create e in
    let a = Net.add_node net ~machine:0 ~cores:1 in
    let b = Net.add_node net ~machine:1 ~cores:1 in
    let log = ref [] in
    for i = 1 to 20 do
      Net.send net ~src:a ~dst:b ~cost:0.001 (fun () ->
          log := (i, Net.now net) :: !log)
    done;
    ignore (Engine.run e);
    !log
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let test_cpu_queueing () =
  (* one core: two 1-second jobs arriving together finish at 1 and 2 *)
  let e = Engine.create ~seed:"cpu" in
  let net = Net.create ~latency:{ Net.lan with lan_jitter = 0. } e in
  let _a = Net.add_node net ~machine:0 ~cores:1 in
  let b = Net.add_node net ~machine:1 ~cores:1 in
  let finishes = ref [] in
  Net.exec net ~dst:b ~cost:1.0 (fun () -> finishes := Net.now net :: !finishes);
  Net.exec net ~dst:b ~cost:1.0 (fun () -> finishes := Net.now net :: !finishes);
  ignore (Engine.run e);
  match List.rev !finishes with
  | [ f1; f2 ] ->
    Alcotest.(check bool) "first at ~1s" true (abs_float (f1 -. 1.0) < 0.01);
    Alcotest.(check bool) "second at ~2s" true (abs_float (f2 -. 2.0) < 0.01)
  | _ -> Alcotest.fail "expected two completions"

let test_multicore_parallelism () =
  let e = Engine.create ~seed:"cores" in
  let net = Net.create e in
  let b = Net.add_node net ~machine:0 ~cores:2 in
  let finishes = ref [] in
  Net.exec net ~dst:b ~cost:1.0 (fun () -> finishes := Net.now net :: !finishes);
  Net.exec net ~dst:b ~cost:1.0 (fun () -> finishes := Net.now net :: !finishes);
  ignore (Engine.run e);
  List.iter
    (fun f -> Alcotest.(check bool) "parallel finish ~1s" true (abs_float (f -. 1.0) < 0.01))
    !finishes

let test_colocation_contention () =
  (* four nodes on one machine run slower than one per machine *)
  let run nodes_per_machine =
    let e = Engine.create ~seed:"cont" in
    let net = Net.create e in
    let ids =
      Array.init 4 (fun i ->
          Net.add_node net ~machine:(if nodes_per_machine = 1 then i else 0) ~cores:1)
    in
    let last = ref 0. in
    Array.iter (fun id -> Net.exec net ~dst:id ~cost:1.0 (fun () -> last := Net.now net)) ids;
    ignore (Engine.run e);
    !last
  in
  Alcotest.(check bool) "co-location slower" true (run 4 > run 1)

let test_wan_latency () =
  let run latency =
    let e = Engine.create ~seed:"wan" in
    let net = Net.create ~latency e in
    let a = Net.add_node net ~machine:0 ~cores:1 in
    let b = Net.add_node net ~machine:1 ~cores:1 in
    let arrival = ref 0. in
    Net.send net ~src:a ~dst:b ~cost:0. (fun () -> arrival := Net.now net);
    ignore (Engine.run e);
    !arrival
  in
  let lan = run Net.lan in
  let wan = run Net.wan in
  Alcotest.(check bool) "wan adds ~25ms" true (wan -. lan > 0.02 && wan -. lan < 0.03)

let test_loopback_cheap () =
  let e = Engine.create ~seed:"loop" in
  let net = Net.create e in
  let a = Net.add_node net ~machine:0 ~cores:1 in
  let b = Net.add_node net ~machine:0 ~cores:1 in
  let arrival = ref 0. in
  Net.send net ~src:a ~dst:b ~cost:0. (fun () -> arrival := Net.now net);
  ignore (Engine.run e);
  Alcotest.(check bool) "loopback < 0.1ms" true (!arrival < 0.0001)

let test_drop_and_duplicate () =
  let run drop duplicate =
    let e = Engine.create ~seed:"faults" in
    let faults = [ Fault_plan.link ~drop ~duplicate ~from_:0. ~until_:infinity () ] in
    let net = Net.create ~faults e in
    let a = Net.add_node net ~machine:0 ~cores:1 in
    let b = Net.add_node net ~machine:1 ~cores:1 in
    let received = ref 0 in
    for _ = 1 to 1000 do
      Net.send net ~src:a ~dst:b ~cost:0. (fun () -> incr received)
    done;
    ignore (Engine.run e);
    !received
  in
  let dropped = run 0.5 0. in
  Alcotest.(check bool) "about half dropped" true (dropped > 350 && dropped < 650);
  let duplicated = run 0. 0.5 in
  Alcotest.(check bool) "about half duplicated" true (duplicated > 1350 && duplicated < 1650);
  Alcotest.(check int) "no faults" 1000 (run 0. 0.)

let test_loopback_reliable () =
  (* drop/duplicate probabilities must not apply to same-machine
     deliveries: local channels are reliable in the deployment model *)
  let run machine_b =
    let e = Engine.create ~seed:"loop-faults" in
    let faults =
      [ Fault_plan.link ~drop:1.0 ~duplicate:1.0 ~from_:0. ~until_:infinity () ]
    in
    let net = Net.create ~faults e in
    let a = Net.add_node net ~machine:0 ~cores:1 in
    let b = Net.add_node net ~machine:machine_b ~cores:1 in
    let received = ref 0 in
    for _ = 1 to 100 do
      Net.send net ~src:a ~dst:b ~cost:0. (fun () -> incr received)
    done;
    ignore (Engine.run e);
    !received
  in
  Alcotest.(check int) "loopback untouched by faults" 100 (run 0);
  Alcotest.(check int) "inter-machine all dropped" 0 (run 1)

(* --- fault plans ------------------------------------------------------ *)

let fault_net ?latency ?(cores = 1) faults =
  let e = Engine.create ~seed:"fault-plan" in
  let latency = Option.value ~default:{ Net.lan with lan_jitter = 0. } latency in
  let net = Net.create ~latency ~faults e in
  let a = Net.add_node net ~machine:0 ~cores:1 in
  let b = Net.add_node net ~machine:1 ~cores in
  (e, net, a, b)

let test_partition_and_heal () =
  let faults = [ Fault_plan.partition ~machines:[ 0 ] ~from_:1. ~until_:2. ] in
  let e, net, a, b = fault_net faults in
  let received = ref [] in
  let send_at t =
    Engine.schedule_at e ~at:t (fun () ->
        Net.send net ~src:a ~dst:b ~cost:0. (fun () -> received := t :: !received))
  in
  send_at 0.5;   (* before the partition: delivered *)
  send_at 1.5;   (* during: cut *)
  send_at 2.5;   (* healed: delivered *)
  ignore (Engine.run e);
  Alcotest.(check (list (float 0.))) "cut during window" [ 0.5; 2.5 ]
    (List.sort compare !received);
  Alcotest.(check int) "loss counted" 1 (Net.messages_dropped net)

let test_partition_spares_internal_links () =
  (* both endpoints inside the partitioned group still talk (distinct
     machines, both listed) *)
  let faults = [ Fault_plan.partition ~machines:[ 0; 1 ] ~from_:0. ~until_:10. ] in
  let e, net, a, b = fault_net faults in
  let got = ref false in
  Net.send net ~src:a ~dst:b ~cost:0. (fun () -> got := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "intra-group link alive" true !got

let test_crash_and_recover () =
  let faults = [ Fault_plan.crash ~node:1 ~at:1. ~recover:2. () ] in
  let e, net, a, b = fault_net faults in
  let received = ref [] in
  let send_at t =
    Engine.schedule_at e ~at:t (fun () ->
        Net.send net ~src:a ~dst:b ~cost:0. (fun () -> received := t :: !received))
  in
  send_at 0.5;   (* up: delivered *)
  send_at 1.5;   (* crashed: lost *)
  send_at 2.5;   (* recovered: delivered *)
  (* a crashed node cannot send either *)
  Engine.schedule_at e ~at:1.6 (fun () ->
      Alcotest.(check bool) "node_up reports crash" false (Net.node_up net b);
      Net.send net ~src:b ~dst:a ~cost:0. (fun () -> received := (-1.) :: !received));
  ignore (Engine.run e);
  Alcotest.(check (list (float 0.))) "crash window loses traffic" [ 0.5; 2.5 ]
    (List.sort compare !received)

let test_crash_catches_in_flight () =
  (* message sent while the destination is up but arriving after the
     crash instant is lost *)
  let faults = [ Fault_plan.crash ~node:1 ~at:0.00005 () ] in
  let latency = { Net.lan with lan_base = 0.001; lan_jitter = 0. } in
  let e, net, a, b = fault_net ~latency faults in
  let got = ref false in
  Net.send net ~src:a ~dst:b ~cost:0. (fun () -> got := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "in-flight message lost" false !got

let test_link_override_asymmetric () =
  let faults =
    [ Fault_plan.link ~src:0 ~dst:1 ~drop:1.0 ~from_:0. ~until_:10. () ]
  in
  let e, net, a, b = fault_net faults in
  let forward = ref false and backward = ref false in
  Net.send net ~src:a ~dst:b ~cost:0. (fun () -> forward := true);
  Net.send net ~src:b ~dst:a ~cost:0. (fun () -> backward := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "faulted direction dropped" false !forward;
  Alcotest.(check bool) "reverse direction clean" true !backward

let test_delay_spike () =
  let arrival faults =
    let e, net, a, b = fault_net faults in
    let at = ref 0. in
    Net.send net ~src:a ~dst:b ~cost:0. (fun () -> at := Net.now net);
    ignore (Engine.run e);
    !at
  in
  let base = arrival [] in
  let spiked = arrival [ Fault_plan.link ~extra_delay:0.5 ~from_:0. ~until_:1. () ] in
  Alcotest.(check bool) "spike adds ~0.5s" true
    (spiked -. base > 0.49 && spiked -. base < 0.51)

let test_reorder_bounded () =
  let faults = [ Fault_plan.reorder ~prob:1.0 ~horizon:0.05 ~from_:0. ~until_:10. ] in
  (* enough cores that a same-instant burst is handled in arrival
     order rather than serialized in CPU-booking (send) order *)
  let e, net, a, b = fault_net ~cores:64 faults in
  let order = ref [] and n = 50 in
  for i = 1 to n do
    Net.send net ~src:a ~dst:b ~cost:0. (fun () -> order := i :: !order)
  done;
  ignore (Engine.run e);
  let order = List.rev !order in
  Alcotest.(check int) "all delivered" n (List.length order);
  Alcotest.(check bool) "some reordering happened" true
    (order <> List.init n (fun i -> i + 1));
  (* boundedness: two messages sent further apart than horizon +
     latency can never swap *)
  let e2, net2, a2, b2 = fault_net faults in
  let log = ref [] in
  Engine.schedule_at e2 ~at:0. (fun () ->
      Net.send net2 ~src:a2 ~dst:b2 ~cost:0. (fun () -> log := 1 :: !log));
  Engine.schedule_at e2 ~at:0.1 (fun () ->
      Net.send net2 ~src:a2 ~dst:b2 ~cost:0. (fun () -> log := 2 :: !log));
  ignore (Engine.run e2);
  Alcotest.(check (list int)) "no reordering beyond the horizon" [ 1; 2 ]
    (List.rev !log)

let test_stats () =
  let s = Stats.sample_set () in
  List.iter (Stats.record s) [ 1.; 2.; 3.; 4.; 100. ];
  Alcotest.(check bool) "mean" true (abs_float (Stats.mean s -. 22.) < 0.001);
  Alcotest.(check bool) "median" true (abs_float (Stats.median s -. 3.) < 0.001);
  Alcotest.(check bool) "max" true (Stats.max_sample s = 100.);
  Alcotest.(check bool) "throughput" true
    (abs_float (Stats.throughput ~completed:50 ~duration:10. -. 5.) < 0.001);
  Alcotest.(check bool) "empty throughput" true (Stats.throughput ~completed:5 ~duration:0. = 0.)

let prop_execution_time_ordered =
  QCheck.Test.make ~name:"events execute in time order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_range 0 10_000))
    (fun delays ->
       let e = Engine.create ~seed:"prop" in
       let log = ref [] in
       List.iter
         (fun d ->
            let at = float_of_int d /. 100. in
            Engine.schedule_at e ~at (fun () -> log := Engine.now e :: !log))
         delays;
       ignore (Engine.run e);
       let times = List.rev !log in
       let rec sorted = function
         | a :: (b :: _ as rest) -> a <= b && sorted rest
         | _ -> true
       in
       sorted times && List.length times = List.length delays)

(* Heap pop order is (time, seq)-monotone under arbitrary interleavings
   of schedule batches and partial runs: we tag every scheduled event
   with its global insertion sequence, replay random (delays, horizon)
   segments, and require the full execution log to be lexicographically
   sorted by (time, seq). *)
let prop_pop_order_monotone =
  QCheck.Test.make ~name:"pop order (time, seq)-monotone under schedule/run interleavings"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8)
              (pair (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 500))
                 (int_range 0 300)))
    (fun segments ->
       let e = Engine.create ~seed:"pop-prop" in
       let seq = ref 0 in
       let log = ref [] in
       List.iter
         (fun (delays, horizon) ->
            List.iter
              (fun d ->
                 let s = !seq in
                 incr seq;
                 Engine.schedule_at e ~at:(Engine.now e +. (float_of_int d /. 100.))
                   (fun () -> log := (Engine.now e, s) :: !log))
              delays;
            ignore (Engine.run ~until:(Engine.now e +. (float_of_int horizon /. 100.)) e))
         segments;
       ignore (Engine.run e);
       let executed = List.rev !log in
       List.length executed = !seq
       && (let rec sorted = function
             | (t1, s1) :: ((t2, s2) :: _ as rest) ->
               (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
             | _ -> true
           in
           sorted executed))

(* schedule_at in the past clamps to [now] and lands after every event
   already queued at [now], preserving existing tie order. *)
let prop_past_clamp_preserves_ties =
  QCheck.Test.make ~name:"past schedule clamps to now without reordering ties"
    ~count:200
    QCheck.(pair (int_range 1 10) (int_range 1 10))
    (fun (existing, clamped) ->
       let e = Engine.create ~seed:"clamp-prop" in
       let log = ref [] in
       (* the first event at t=10 injects [clamped] stale events dated
          in the past while [existing] events are already queued at 10 *)
       Engine.schedule_at e ~at:10. (fun () ->
           for j = 1 to clamped do
             Engine.schedule_at e ~at:1. (fun () ->
                 log := (Engine.now e, 1000 + j) :: !log)
           done);
       for i = 1 to existing do
         Engine.schedule_at e ~at:10. (fun () -> log := (Engine.now e, i) :: !log)
       done;
       ignore (Engine.run e);
       let expected =
         List.init existing (fun i -> (10., i + 1))
         @ List.init clamped (fun j -> (10., 1000 + j + 1))
       in
       List.rev !log = expected)

let prop_cpu_never_overlaps =
  QCheck.Test.make ~name:"single core serializes work" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_range 1 100))
    (fun costs ->
       let e = Engine.create ~seed:"cpu-prop" in
       let net = Net.create e in
       let node = Net.add_node net ~machine:0 ~cores:1 in
       let total = List.fold_left ( + ) 0 costs in
       let finish = ref 0. in
       List.iter
         (fun c ->
            Net.exec net ~dst:node ~cost:(float_of_int c /. 1000.)
              (fun () -> finish := Net.now net))
         costs;
       ignore (Engine.run e);
       (* all work serialized: completion >= sum of costs *)
       !finish >= float_of_int total /. 1000. -. 1e-9)

let () =
  Alcotest.run "sim"
    [ ("engine",
       [ Alcotest.test_case "event ordering" `Quick test_event_ordering;
         Alcotest.test_case "tie break" `Quick test_tie_break_by_insertion;
         Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
         Alcotest.test_case "run until" `Quick test_run_until;
         Alcotest.test_case "run drained before limit" `Quick test_run_drained_before_limit;
         Alcotest.test_case "past clamped" `Quick test_past_clamped ]);
      ("net",
       [ Alcotest.test_case "determinism" `Quick test_determinism;
         Alcotest.test_case "cpu queueing" `Quick test_cpu_queueing;
         Alcotest.test_case "multicore" `Quick test_multicore_parallelism;
         Alcotest.test_case "co-location contention" `Quick test_colocation_contention;
         Alcotest.test_case "wan latency" `Quick test_wan_latency;
         Alcotest.test_case "loopback" `Quick test_loopback_cheap;
         Alcotest.test_case "drop/duplicate" `Quick test_drop_and_duplicate;
         Alcotest.test_case "loopback reliable under faults" `Quick test_loopback_reliable ]);
      ("fault-plan",
       [ Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
         Alcotest.test_case "partition spares internal links" `Quick
           test_partition_spares_internal_links;
         Alcotest.test_case "crash and recover" `Quick test_crash_and_recover;
         Alcotest.test_case "crash catches in-flight" `Quick test_crash_catches_in_flight;
         Alcotest.test_case "asymmetric link override" `Quick test_link_override_asymmetric;
         Alcotest.test_case "delay spike" `Quick test_delay_spike;
         Alcotest.test_case "bounded reorder" `Quick test_reorder_bounded ]);
      ("stats", [ Alcotest.test_case "summary stats" `Quick test_stats ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_execution_time_ordered;
           prop_pop_order_monotone;
           prop_past_clamp_preserves_ties;
           prop_cpu_never_overlaps ]) ]
