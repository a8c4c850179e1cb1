(* Reliable-broadcast and batched binary consensus tests, including
   Byzantine senders, message reordering, and the agreement/validity/
   termination properties the Vote Set Consensus relies on. *)

module Rbc = Dd_consensus.Rbc
module Binary_batch = Dd_consensus.Binary_batch
module Drbg = Dd_crypto.Drbg

(* A tiny deterministic message bus: messages are queued and delivered
   in either FIFO or seeded-random order. *)
type bus = {
  mutable queue : (int * (unit -> unit)) list;   (* dst, delivery *)
  rng : Drbg.t;
  shuffle : bool;
}

let make_bus ?(shuffle = false) ~seed () =
  { queue = []; rng = Drbg.create ~seed; shuffle }

let post bus dst f = bus.queue <- bus.queue @ [ (dst, f) ]

let run_bus bus =
  let steps = ref 0 in
  while bus.queue <> [] && !steps < 1_000_000 do
    incr steps;
    let pick =
      if bus.shuffle then Drbg.int bus.rng (List.length bus.queue) else 0
    in
    let msg = List.nth bus.queue pick in
    bus.queue <- List.filteri (fun i _ -> i <> pick) bus.queue;
    (snd msg) ()
  done

(* --- RBC --------------------------------------------------------------- *)

type rbc_cluster = {
  rbcs : Rbc.t array;
  delivered : (int * string * string) list ref;  (* node, tag, payload *)
}

let make_rbc_cluster ?(shuffle = false) ?(drop_to = []) ~n ~f ~seed () =
  let bus = make_bus ~shuffle ~seed () in
  let delivered = ref [] in
  let rbcs = Array.make n None in
  for me = 0 to n - 1 do
    let send_all m =
      for dst = 0 to n - 1 do
        if not (List.mem dst drop_to) then
          post bus dst (fun () ->
              match rbcs.(dst) with
              | Some r -> Rbc.on_message r ~from:me m
              | None -> ())
      done
    in
    let deliver ~origin ~tag payload =
      ignore origin;
      delivered := (me, tag, payload) :: !delivered
    in
    rbcs.(me) <- Some (Rbc.create ~n ~f ~me ~send_all ~deliver)
  done;
  ({ rbcs = Array.map Option.get rbcs; delivered }, bus)

let test_rbc_honest_broadcast () =
  let cluster, bus = make_rbc_cluster ~n:4 ~f:1 ~seed:"rbc1" () in
  Rbc.broadcast cluster.rbcs.(0) ~tag:"t" "hello";
  run_bus bus;
  let got = List.filter (fun (_, tag, p) -> tag = "t" && p = "hello") !(cluster.delivered) in
  Alcotest.(check int) "all four deliver" 4 (List.length got)

let test_rbc_delivers_once () =
  let cluster, bus = make_rbc_cluster ~n:4 ~f:1 ~seed:"rbc2" () in
  Rbc.broadcast cluster.rbcs.(1) ~tag:"once" "payload";
  run_bus bus;
  (* replaying the whole exchange must not deliver again *)
  Rbc.broadcast cluster.rbcs.(1) ~tag:"once" "payload";
  run_bus bus;
  let per_node node =
    List.length (List.filter (fun (m, tag, _) -> m = node && tag = "once") !(cluster.delivered))
  in
  for node = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "node %d exactly once" node) 1 (per_node node)
  done

let test_rbc_reordering () =
  let cluster, bus = make_rbc_cluster ~shuffle:true ~n:4 ~f:1 ~seed:"rbc3" () in
  Rbc.broadcast cluster.rbcs.(2) ~tag:"r" "msg";
  run_bus bus;
  Alcotest.(check int) "all deliver under reordering" 4
    (List.length (List.filter (fun (_, t, _) -> t = "r") !(cluster.delivered)))

let test_rbc_forged_init_ignored () =
  (* node 3 (Byzantine) sends an INIT claiming origin 0: honest nodes
     must not echo it, so nothing is delivered *)
  let cluster, bus = make_rbc_cluster ~n:4 ~f:1 ~seed:"rbc4" () in
  let forged = { Rbc.phase = Rbc.Init; origin = 0; tag = "forge"; payload = "evil" } in
  for dst = 0 to 3 do
    Rbc.on_message cluster.rbcs.(dst) ~from:3 forged
  done;
  run_bus bus;
  Alcotest.(check int) "nothing delivered" 0
    (List.length (List.filter (fun (_, t, _) -> t = "forge") !(cluster.delivered)))

let test_rbc_equivocating_origin_agreement () =
  (* a Byzantine origin sends INIT "a" to half and INIT "b" to the
     others: honest nodes may deliver at most one payload, and all who
     deliver must agree *)
  let cluster, bus = make_rbc_cluster ~shuffle:true ~n:4 ~f:1 ~seed:"rbc5" () in
  let init payload = { Rbc.phase = Rbc.Init; origin = 3; tag = "eq"; payload } in
  Rbc.on_message cluster.rbcs.(0) ~from:3 (init "a");
  Rbc.on_message cluster.rbcs.(1) ~from:3 (init "a");
  Rbc.on_message cluster.rbcs.(2) ~from:3 (init "b");
  run_bus bus;
  let delivered = List.filter (fun (_, t, _) -> t = "eq") !(cluster.delivered) in
  let payloads = List.sort_uniq compare (List.map (fun (_, _, p) -> p) delivered) in
  Alcotest.(check bool) "agreement" true (List.length payloads <= 1)

let test_rbc_msg_codec () =
  let m = { Rbc.phase = Rbc.Echo; origin = 7; tag = "tag/1"; payload = "\x00binary\xff" } in
  (match Rbc.decode_msg (Rbc.encode_msg m) with
   | Some m' -> Alcotest.(check bool) "roundtrip" true (m = m')
   | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage" true (Rbc.decode_msg "nonsense" = None)

let test_rbc_requires_quorum_size () =
  Alcotest.check_raises "n >= 3f+1" (Invalid_argument "Rbc.create: need n >= 3f+1")
    (fun () ->
       ignore (Rbc.create ~n:3 ~f:1 ~me:0 ~send_all:(fun _ -> ())
                 ~deliver:(fun ~origin:_ ~tag:_ _ -> ())))

(* --- batched binary consensus ------------------------------------------- *)

type bc_cluster = {
  decisions : (int * int * bool) list ref;  (* node, slot, value *)
}

(* Consensus over RBC over the bus, like the Vote Set Consensus stack. *)
let make_bc_cluster ?(shuffle = true) ?(byzantine = []) ~n ~f ~slots ~initials ~seed () =
  let bus = make_bus ~shuffle ~seed () in
  let decisions = ref [] in
  let rbcs = Array.make n None in
  let bcs = Array.make n None in
  let seqs = Array.make n 0 in
  for me = 0 to n - 1 do
    let send_all m =
      for dst = 0 to n - 1 do
        post bus dst (fun () ->
            match rbcs.(dst) with
            | Some r -> Rbc.on_message r ~from:me m
            | None -> ())
      done
    in
    let deliver ~origin ~tag:_ payload =
      match bcs.(me) with
      | Some b -> Binary_batch.on_deliver b ~from:origin payload
      | None -> ()
    in
    rbcs.(me) <- Some (Rbc.create ~n ~f ~me ~send_all ~deliver)
  done;
  for me = 0 to n - 1 do
    if not (List.mem me byzantine) then begin
      let broadcast payload =
        seqs.(me) <- seqs.(me) + 1;
        Rbc.broadcast (Option.get rbcs.(me)) ~tag:(Printf.sprintf "%d.%d" me seqs.(me)) payload
      in
      let b =
        Binary_batch.create ~n ~f ~me ~slots ~initial:initials.(me)
          ~coin:Binary_batch.Local
          ~rng:(Drbg.create ~seed:(Printf.sprintf "coin%s%d" seed me))
          ~broadcast
          ~on_decide:(fun slot v -> decisions := (me, slot, v) :: !decisions)
      in
      bcs.(me) <- Some b
    end
  done;
  ({ decisions },
   bus,
   fun () ->
     Array.iteri (fun me b -> if not (List.mem me byzantine) then
                     match b with Some b -> Binary_batch.start b | None -> ()) bcs)

let check_agreement_validity ~n ~byzantine ~slots ~initials decisions =
  let honest = List.filter (fun i -> not (List.mem i byzantine)) (List.init n Fun.id) in
  (* every honest node decided every slot *)
  List.iter
    (fun node ->
       for slot = 0 to slots - 1 do
         match List.filter (fun (m, s, _) -> m = node && s = slot) decisions with
         | [ _ ] -> ()
         | [] -> Alcotest.failf "node %d never decided slot %d" node slot
         | _ -> Alcotest.failf "node %d decided slot %d twice" node slot
       done)
    honest;
  (* agreement per slot *)
  for slot = 0 to slots - 1 do
    let values =
      List.sort_uniq compare
        (List.filter_map
           (fun (m, s, v) -> if s = slot && List.mem m honest then Some v else None)
           decisions)
    in
    if List.length values <> 1 then Alcotest.failf "disagreement on slot %d" slot;
    (* validity: if all honest proposed the same value, that is decided *)
    let proposals = List.sort_uniq compare (List.map (fun i -> initials.(i).(slot)) honest) in
    match proposals, values with
    | [ p ], [ v ] when p <> v -> Alcotest.failf "validity violated on slot %d" slot
    | _ -> ()
  done

let test_bc_unanimous_one () =
  let n = 4 and f = 1 and slots = 5 in
  let initials = Array.init n (fun _ -> Array.make slots true) in
  let cluster, bus, start = make_bc_cluster ~n ~f ~slots ~initials ~seed:"bc1" () in
  start ();
  run_bus bus;
  check_agreement_validity ~n ~byzantine:[] ~slots ~initials !(cluster.decisions);
  List.iter (fun (_, _, v) -> Alcotest.(check bool) "decided 1" true v) !(cluster.decisions)

let test_bc_unanimous_zero () =
  let n = 4 and f = 1 and slots = 3 in
  let initials = Array.init n (fun _ -> Array.make slots false) in
  let cluster, bus, start = make_bc_cluster ~n ~f ~slots ~initials ~seed:"bc0" () in
  start ();
  run_bus bus;
  check_agreement_validity ~n ~byzantine:[] ~slots ~initials !(cluster.decisions);
  List.iter (fun (_, _, v) -> Alcotest.(check bool) "decided 0" false v) !(cluster.decisions)

let test_bc_mixed_opinions_agree () =
  let n = 4 and f = 1 and slots = 8 in
  (* mixed initial opinions per slot *)
  let initials =
    Array.init n (fun i -> Array.init slots (fun s -> (i + s) mod 2 = 0))
  in
  let cluster, bus, start = make_bc_cluster ~n ~f ~slots ~initials ~seed:"bcmix" () in
  start ();
  run_bus bus;
  check_agreement_validity ~n ~byzantine:[] ~slots ~initials !(cluster.decisions)

let test_bc_silent_byzantine () =
  (* one node never participates: the other 3 of 4 still terminate *)
  let n = 4 and f = 1 and slots = 4 in
  let initials = Array.init n (fun _ -> Array.make slots true) in
  let byzantine = [ 3 ] in
  let cluster, bus, start = make_bc_cluster ~byzantine ~n ~f ~slots ~initials ~seed:"bcsil" () in
  start ();
  run_bus bus;
  check_agreement_validity ~n ~byzantine ~slots ~initials !(cluster.decisions)

let test_bc_seven_nodes_two_faults () =
  let n = 7 and f = 2 and slots = 3 in
  let initials = Array.init n (fun i -> Array.init slots (fun s -> (i * 3 + s) mod 2 = 0)) in
  let byzantine = [ 2; 5 ] in
  let cluster, bus, start = make_bc_cluster ~byzantine ~n ~f ~slots ~initials ~seed:"bc7" () in
  start ();
  run_bus bus;
  check_agreement_validity ~n ~byzantine ~slots ~initials !(cluster.decisions)

let test_bc_payload_codec () =
  let payload = Binary_batch.encode_payload ~round:3 ~step:2 [| 0; 1; 2; 1; 0; 2 |] in
  (match Binary_batch.decode_payload payload with
   | Some (r, s, vals) ->
     Alcotest.(check int) "round" 3 r;
     Alcotest.(check int) "step" 2 s;
     Alcotest.(check (array int)) "vals" [| 0; 1; 2; 1; 0; 2 |] vals
   | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage" true (Binary_batch.decode_payload "zzz" = None)

let test_bc_common_coin_mode () =
  let n = 4 and f = 1 and slots = 6 in
  let initials = Array.init n (fun i -> Array.init slots (fun s -> (i + s) mod 2 = 0)) in
  let bus = make_bus ~shuffle:true ~seed:"cc" () in
  let decisions = ref [] in
  let rbcs = Array.make n None and bcs = Array.make n None and seqs = Array.make n 0 in
  for me = 0 to n - 1 do
    let send_all m =
      for dst = 0 to n - 1 do
        post bus dst (fun () ->
            match rbcs.(dst) with Some r -> Rbc.on_message r ~from:me m | None -> ())
      done
    in
    let deliver ~origin ~tag:_ payload =
      match bcs.(me) with
      | Some b -> Binary_batch.on_deliver b ~from:origin payload
      | None -> ()
    in
    rbcs.(me) <- Some (Rbc.create ~n ~f ~me ~send_all ~deliver)
  done;
  for me = 0 to n - 1 do
    let broadcast payload =
      seqs.(me) <- seqs.(me) + 1;
      Rbc.broadcast (Option.get rbcs.(me)) ~tag:(Printf.sprintf "%d.%d" me seqs.(me)) payload
    in
    bcs.(me) <-
      Some
        (Binary_batch.create ~n ~f ~me ~slots ~initial:initials.(me)
           ~coin:(Binary_batch.Common "shared-seed")
           ~rng:(Drbg.create ~seed:(string_of_int me))
           ~broadcast
           ~on_decide:(fun slot v -> decisions := (me, slot, v) :: !decisions))
  done;
  Array.iter (function Some b -> Binary_batch.start b | None -> ()) bcs;
  run_bus bus;
  check_agreement_validity ~n ~byzantine:[] ~slots ~initials !decisions

let test_bc_random_value_byzantine () =
  (* Byzantine nodes that RBC-broadcast well-formed but arbitrary
     payloads every round: the justification rules (f+1 step-1 support
     for step-2 values, majority step-2 support for step-3 suggestions)
     must keep honest agreement and validity intact *)
  let n = 4 and f = 1 and slots = 6 in
  let byz = 3 in
  let initials = Array.init n (fun i -> Array.init slots (fun s -> (i + s) mod 2 = 0)) in
  let bus = make_bus ~shuffle:true ~seed:"byzrand" () in
  let decisions = ref [] in
  let rbcs = Array.make n None and bcs = Array.make n None and seqs = Array.make n 0 in
  for me = 0 to n - 1 do
    let send_all m =
      for dst = 0 to n - 1 do
        post bus dst (fun () ->
            match rbcs.(dst) with Some r -> Rbc.on_message r ~from:me m | None -> ())
      done
    in
    let deliver ~origin ~tag:_ payload =
      if me <> byz then
        match bcs.(me) with
        | Some b -> Binary_batch.on_deliver b ~from:origin payload
        | None -> ()
    in
    rbcs.(me) <- Some (Rbc.create ~n ~f ~me ~send_all ~deliver)
  done;
  let adversary_rng = Drbg.create ~seed:"adversary" in
  for me = 0 to n - 1 do
    if me <> byz then begin
      let broadcast payload =
        seqs.(me) <- seqs.(me) + 1;
        Rbc.broadcast (Option.get rbcs.(me)) ~tag:(Printf.sprintf "%d.%d" me seqs.(me)) payload;
        (* after every honest broadcast the adversary injects a fresh
           arbitrary message for some round/step *)
        seqs.(byz) <- seqs.(byz) + 1;
        let round = 1 + Drbg.int adversary_rng 3 in
        let step = 1 + Drbg.int adversary_rng 3 in
        let vals =
          Array.init slots (fun _ ->
              if step = 3 then Drbg.int adversary_rng 3 else Drbg.int adversary_rng 2)
        in
        Rbc.broadcast (Option.get rbcs.(byz))
          ~tag:(Printf.sprintf "%d.%d" byz seqs.(byz))
          (Binary_batch.encode_payload ~round ~step vals)
      in
      bcs.(me) <-
        Some
          (Binary_batch.create ~n ~f ~me ~slots ~initial:initials.(me)
             ~coin:Binary_batch.Local
             ~rng:(Drbg.create ~seed:(Printf.sprintf "rv%d" me))
             ~broadcast
             ~on_decide:(fun slot v -> decisions := (me, slot, v) :: !decisions))
    end
  done;
  Array.iteri (fun me b -> if me <> byz then
                  match b with Some b -> Binary_batch.start b | None -> ()) bcs;
  run_bus bus;
  check_agreement_validity ~n ~byzantine:[ byz ] ~slots ~initials !decisions

let prop_bc_random_initials =
  QCheck.Test.make ~name:"consensus under random opinion" ~count:15
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, slots) ->
       let n = 4 and f = 1 in
       let rng = Drbg.create ~seed:(Printf.sprintf "prop%d" seed) in
       let initials = Array.init n (fun _ -> Array.init slots (fun _ -> Drbg.bool rng)) in
       let cluster, bus, start =
         make_bc_cluster ~n ~f ~slots ~initials ~seed:(Printf.sprintf "bus%d" seed) ()
       in
       start ();
       run_bus bus;
       check_agreement_validity ~n ~byzantine:[] ~slots ~initials !(cluster.decisions);
       true)

let () =
  Alcotest.run "consensus"
    [ ("rbc",
       [ Alcotest.test_case "honest broadcast" `Quick test_rbc_honest_broadcast;
         Alcotest.test_case "delivers once" `Quick test_rbc_delivers_once;
         Alcotest.test_case "reordering" `Quick test_rbc_reordering;
         Alcotest.test_case "forged INIT ignored" `Quick test_rbc_forged_init_ignored;
         Alcotest.test_case "equivocation agreement" `Quick test_rbc_equivocating_origin_agreement;
         Alcotest.test_case "message codec" `Quick test_rbc_msg_codec;
         Alcotest.test_case "quorum size check" `Quick test_rbc_requires_quorum_size ]);
      ("binary-batch",
       [ Alcotest.test_case "unanimous 1" `Quick test_bc_unanimous_one;
         Alcotest.test_case "unanimous 0" `Quick test_bc_unanimous_zero;
         Alcotest.test_case "mixed opinions" `Quick test_bc_mixed_opinions_agree;
         Alcotest.test_case "silent byzantine" `Quick test_bc_silent_byzantine;
         Alcotest.test_case "n=7 f=2" `Quick test_bc_seven_nodes_two_faults;
         Alcotest.test_case "payload codec" `Quick test_bc_payload_codec;
         Alcotest.test_case "common coin" `Quick test_bc_common_coin_mode;
         Alcotest.test_case "random-value byzantine" `Quick test_bc_random_value_byzantine;
         QCheck_alcotest.to_alcotest prop_bc_random_initials ]) ]
