(* Serving-runtime tests: framing under split/torn/coalesced delivery,
   mux totality, backpressure units, batched-verification equivalence,
   and the transcript-equivalence pin — the byte-stream serving backend
   must produce the same election outcomes as the simulator for the
   same seeded workload. *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Auth = Ddemos.Auth
module Messages = Ddemos.Messages
module Election = Ddemos.Election
module Ballot_gen = Ddemos.Ballot_gen
module Drbg = Dd_crypto.Drbg
module Frame = Dd_serve.Frame
module Mux = Dd_serve.Mux
module Mailbox = Dd_serve.Mailbox
module Batcher = Dd_serve.Batcher
module Runtime = Dd_serve.Runtime
module Loadgen = Dd_serve.Loadgen
module Pipe = Dd_serve.Pipe
module Transport = Dd_serve.Transport

(* --- framing ------------------------------------------------------------ *)

(* Chop [stream] into chunks whose sizes are drawn from [rng]: this is
   what a TCP-like transport does to frame boundaries. *)
let chop rng stream =
  let n = String.length stream in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else begin
      let k = min (n - pos) (1 + Drbg.int rng 9) in
      go (pos + k) (String.sub stream pos k :: acc)
    end
  in
  go 0 []

let prop_frame_chopped_roundtrip =
  QCheck.Test.make ~name:"framing survives split/torn/coalesced delivery" ~count:200
    QCheck.(pair small_int
              (list_of_size (QCheck.Gen.int_range 0 12)
                 (string_of_size (QCheck.Gen.int_range 0 200))))
    (fun (salt, payloads) ->
       let stream = String.concat "" (List.map Frame.encode payloads) in
       let rng = Drbg.create ~seed:(Printf.sprintf "chop|%d" salt) in
       let dec = Frame.create () in
       let out = ref [] in
       List.iter
         (fun chunk ->
            Frame.feed dec chunk;
            let rec pop () =
              match Frame.pop dec with
              | Some p -> out := p :: !out; pop ()
              | None -> ()
            in
            pop ())
         (chop rng stream);
       Frame.error dec = None && List.rev !out = payloads && Frame.buffered dec = 0)

let test_frame_oversize_poisons () =
  let dec = Frame.create ~max_frame:16 () in
  Frame.feed dec (Frame.encode (String.make 17 'x'));
  Alcotest.(check bool) "no frame" true (Frame.pop dec = None);
  Alcotest.(check bool) "poisoned" true (Frame.error dec <> None);
  (* sticky: later (valid) bytes are ignored *)
  Frame.feed dec (Frame.encode "ok");
  Alcotest.(check bool) "still poisoned" true (Frame.error dec <> None);
  Alcotest.(check bool) "still no frame" true (Frame.pop dec = None)

let test_frame_header_split () =
  (* a frame whose 4-byte header itself arrives one byte at a time *)
  let f = Frame.encode "payload" in
  let dec = Frame.create () in
  String.iter
    (fun c ->
       Alcotest.(check bool) "no early frame" true (Frame.pop dec = None);
       Frame.feed dec (String.make 1 c))
    (String.sub f 0 (String.length f - 1));
  Frame.feed dec (String.sub f (String.length f - 1) 1);
  Alcotest.(check (option string)) "complete" (Some "payload") (Frame.pop dec)

(* --- mux ---------------------------------------------------------------- *)

let gctx = Dd_group.Group_ctx.default ()

let prop_mux_client_roundtrip =
  QCheck.Test.make ~name:"client frames roundtrip" ~count:200
    QCheck.(quad small_nat small_nat small_nat (string_of_size (QCheck.Gen.int_range 0 40)))
    (fun (channel, req, serial, code) ->
       let vote = Mux.Client_vote { channel; req; serial; vote_code = code } in
       let reply = Mux.Client_reply { channel; req; outcome = Types.Receipt code } in
       Mux.decode gctx (Mux.encode gctx vote) = Some vote
       && Mux.decode gctx (Mux.encode gctx reply) = Some reply)

let prop_mux_total =
  QCheck.Test.make ~name:"mux decoder is total on random bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun junk ->
       match Mux.decode gctx junk with
       | Some _ | None -> true)

let test_mux_rejects_bad_kind () =
  let w = Dd_codec.Wire.writer () in
  Dd_codec.Wire.put_varint w 9;
  Alcotest.(check bool) "unknown kind" true (Mux.decode gctx (Dd_codec.Wire.contents w) = None)

(* --- mailbox ------------------------------------------------------------ *)

let test_mailbox_bounds () =
  let mb = Mailbox.create ~capacity:3 in
  Alcotest.(check bool) "1" true (Mailbox.push mb 1);
  Alcotest.(check bool) "2" true (Mailbox.push mb 2);
  Alcotest.(check bool) "3" true (Mailbox.push mb 3);
  Alcotest.(check bool) "full" false (Mailbox.push mb 4);
  Alcotest.(check int) "dropped" 1 (Mailbox.dropped mb);
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (Mailbox.drain ~max:2 mb);
  Alcotest.(check bool) "room again" true (Mailbox.push mb 5);
  Alcotest.(check (list int)) "rest" [ 3; 5 ] (Mailbox.drain ~max:10 mb);
  Alcotest.(check int) "pushed" 4 (Mailbox.pushed mb);
  Alcotest.(check int) "empty" 0 (Mailbox.length mb)

(* --- batcher ------------------------------------------------------------ *)

(* The hook must agree with Auth.verify on every obligation — batching
   may only change cost, never verdicts, even with forgeries inside
   the batch. *)
let test_batcher_verdicts () =
  let election_id = "batch-test" in
  let keys = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~gctx ~seed:"batch-clique" ~n:4 in
  let b =
    Batcher.create ~min_batch:4 ~keys:keys.(0) ~gctx ~election_id ~ea_signer:3
      ~share_tags:false ()
  in
  let body serial = Messages.endorsement_body ~election_id ~serial ~code:"c" in
  let tag signer serial = Auth.sign keys.(signer) (body serial) in
  let msgs =
    List.init 6 (fun serial ->
        Messages.Endorsement
          { serial; vote_code = "c"; signer = serial mod 3; tag = tag (serial mod 3) serial })
  in
  (* one forged endorsement hidden in the batch: signed by the wrong key *)
  let forged = Messages.Endorsement { serial = 99; vote_code = "c"; signer = 1; tag = tag 2 99 } in
  Batcher.preverify b (forged :: msgs);
  List.iteri
    (fun i m ->
       match m with
       | Messages.Endorsement { serial; signer; tag; _ } ->
         Alcotest.(check bool) (Printf.sprintf "valid %d" i) true
           (Batcher.verify b ~signer (body serial) tag)
       | _ -> ())
    msgs;
  (match forged with
   | Messages.Endorsement { serial; signer; tag; _ } ->
     Alcotest.(check bool) "forged rejected" false (Batcher.verify b ~signer (body serial) tag)
   | _ -> ());
  let st = Batcher.stats b in
  Alcotest.(check bool) "batched at least once" true (st.Batcher.batch_calls >= 1);
  (* every hook lookup above came from the cache the batch settled *)
  Alcotest.(check int) "all answered from cache" 7 st.Batcher.cache_hits

(* --- pipe transport ----------------------------------------------------- *)

let test_pipe_duplex_and_close () =
  let a, b = Pipe.pair ~capacity:8 () in
  Alcotest.(check int) "accepts up to capacity" 8 (Transport.send_string a "0123456789");
  Alcotest.(check string) "b reads it" "01234567" (Transport.recv_all b);
  Alcotest.(check int) "drained: room again" 3 (Transport.send_string a "abc");
  Alcotest.(check string) "other direction" ""
    (Transport.recv_all a);
  ignore (Transport.send_string b "xy" : int);
  Alcotest.(check string) "b to a" "xy" (Transport.recv_all a);
  b.Transport.close ();
  Alcotest.(check bool) "a sees close" false (a.Transport.alive ());
  Alcotest.(check int) "send after close" 0 (Transport.send_string a "z")

(* --- serving runtime, end to end over torn pipes ------------------------ *)

let serve_cfg = { Types.default_config with Types.n_voters = 12; Types.m_options = 3 }

let intents n = List.init n (fun s -> { Loadgen.serial = s; choice = s mod 3 })

(* Full vote-collection run over the duplex-pipe transport with a
   DRBG-chopped receive path: every recv returns 1..8 bytes, so frames
   arrive torn across ticks, on interleaved connections. *)
let run_pipe_election ?(batching = true) ?(chopped = false) ~seed ~clients n_votes =
  let src = Runtime.source_prf serve_cfg ~seed in
  let params = { Runtime.default_params with Runtime.batching } in
  let t = Runtime.create ~params src in
  let chopper = Drbg.create ~seed:("chopper|" ^ seed) in
  let conn_for ~client:_ ~node =
    if chopped then
      Runtime.client_conn ~recv_chunk:(fun () -> 1 + Drbg.int chopper 8) t ~node
    else Runtime.client_conn t ~node
  in
  let lg =
    { Loadgen.lg_clients = clients; lg_seed = seed; lg_max_steps = 200_000 }
  in
  let r =
    Loadgen.run ~params:lg ~conn_for ~step:(fun () -> Runtime.step t)
      ~ballot_for:(fun serial ->
          Ballot_gen.voter_ballot ~seed ~serial ~m:serve_cfg.Types.m_options)
      ~nv:serve_cfg.Types.nv ~votes:(intents n_votes) ()
  in
  (t, r)

let test_pipe_serving_all_receipts () =
  let t, r = run_pipe_election ~seed:"pipe-serve" ~clients:5 12 in
  Alcotest.(check int) "all receipts" 12 r.Loadgen.receipts_ok;
  Alcotest.(check int) "no bad receipts" 0 r.Loadgen.receipts_bad;
  Alcotest.(check int) "nothing lost" 0 r.Loadgen.lost;
  Alcotest.(check int) "no malformed frames" 0 (Runtime.stats t).Runtime.malformed;
  (* the batching stage actually amortized work *)
  let bs = Runtime.batch_stats t in
  Alcotest.(check bool) "batched some obligations" true (bs.Batcher.batched > 0)

let prop_pipe_serving_torn =
  (* same election, arbitrarily torn byte deliveries: outcomes must not
     depend on how the stream is chopped *)
  QCheck.Test.make ~name:"serving outcome is chop-invariant" ~count:5
    QCheck.small_int
    (fun salt ->
       let seed = Printf.sprintf "torn|%d" salt in
       let _, r = run_pipe_election ~chopped:true ~seed ~clients:4 8 in
       r.Loadgen.receipts_ok = 8 && r.Loadgen.lost = 0)

let test_backpressure_sheds_votes () =
  let src = Runtime.source_prf serve_cfg ~seed:"shed" in
  let params =
    { Runtime.default_params with Runtime.mailbox_cap = 2; batch_max = 1 }
  in
  let t = Runtime.create ~params src in
  let conn = Runtime.client_conn t ~node:0 in
  (* 8 votes land in one tick against a 2-slot mailbox: the surplus
     must come back as immediate rejections, not queue unboundedly *)
  for req = 1 to 8 do
    ignore
      (Transport.send_string conn
         (Frame.encode
            (Mux.encode gctx
               (Mux.Client_vote
                  { channel = 0; req; serial = req - 1; vote_code = "x" })))
      : int)
  done;
  ignore (Runtime.run_until_idle t : int);
  Alcotest.(check bool) "some votes shed" true ((Runtime.stats t).Runtime.votes_shed > 0);
  let dec = Frame.create () in
  Frame.feed dec (Transport.recv_all conn);
  let replies = ref 0 and overloaded = ref 0 in
  let rec pop () =
    match Frame.pop dec with
    | None -> ()
    | Some p ->
      (match Mux.decode gctx p with
       | Some (Mux.Client_reply { outcome = Types.Rejected r; _ }) ->
         incr replies;
         if r = "server overloaded" then incr overloaded
       | Some (Mux.Client_reply _) -> incr replies
       | _ -> ());
      pop ()
  in
  pop ();
  Alcotest.(check int) "every vote answered" 8 !replies;
  Alcotest.(check bool) "sheds say overloaded" true (!overloaded > 0)

(* A reply is the business of the client whose connection carried it:
   a frame on client 1's connection naming client 0's request (here a
   forged rejection) must not settle client 0's vote. *)
let test_misrouted_reply_dropped () =
  let seed = "misroute" in
  let t = Runtime.create (Runtime.source_prf serve_cfg ~seed) in
  let forged = ref false in
  let conn_for ~client ~node =
    let conn = Runtime.client_conn t ~node in
    if client <> 1 then conn
    else
      { conn with
        Transport.recv =
          (fun () ->
             if !forged then conn.Transport.recv ()
             else begin
               forged := true;
               (* request 1 is client 0's first vote *)
               Frame.encode
                 (Mux.encode gctx
                    (Mux.Client_reply
                       { channel = 0; req = 1; outcome = Types.Rejected "forged" }))
             end) }
  in
  let r =
    Loadgen.run
      ~params:{ Loadgen.default_params with Loadgen.lg_clients = 2; lg_seed = seed }
      ~conn_for ~step:(fun () -> Runtime.step t)
      ~ballot_for:(fun serial ->
          Ballot_gen.voter_ballot ~seed ~serial ~m:serve_cfg.Types.m_options)
      ~nv:serve_cfg.Types.nv ~votes:(intents 4) ()
  in
  Alcotest.(check bool) "the forged frame was delivered" true !forged;
  Alcotest.(check int) "no rejection accepted" 0 r.Loadgen.rejections;
  Alcotest.(check int) "every vote verified" 4 r.Loadgen.receipts_ok

(* --- transcript equivalence against the simulator ----------------------- *)

let eq_cfg = { Types.default_config with Types.n_voters = 8; Types.m_options = 3 }
let eq_setup = lazy (Ea.setup eq_cfg ~seed:"serve-eq-setup")
let eq_votes = [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 0); (5, 1); (6, 2); (7, 1) ]

let sorted l = List.sort compare l

(* The same seeded workload through the simulator and through the
   serving runtime must cast the same codes and agree on the final
   set: the backends share the sans-IO nodes and the voter model, so
   any divergence is a serving-layer bug. *)
let test_transcript_equivalence () =
  let setup = Lazy.force eq_setup in
  let seed = "serve-eq" in
  let clients = 3 in
  (* simulator run *)
  let p =
    Election.default_params ~fidelity:(Election.Full setup) eq_cfg
      ~votes:(List.map (fun (s, c) -> { Election.vi_serial = s; Election.vi_choice = c }) eq_votes)
  in
  let sim = Election.run { p with Election.seed; concurrent_clients = clients } in
  (* serving run over duplex pipes, batching on *)
  let t = Runtime.create (Runtime.source_of_setup setup) in
  let lg = { Loadgen.default_params with Loadgen.lg_clients = clients; lg_seed = seed } in
  let r =
    Loadgen.run ~params:lg
      ~conn_for:(fun ~client:_ ~node -> Runtime.client_conn t ~node)
      ~step:(fun () -> Runtime.step t)
      ~ballot_for:(fun serial -> setup.Ea.ballots.(serial))
      ~nv:eq_cfg.Types.nv
      ~votes:(List.map (fun (s, c) -> { Loadgen.serial = s; choice = c }) eq_votes)
      ()
  in
  Alcotest.(check int) "receipts agree" sim.Election.receipts_ok r.Loadgen.receipts_ok;
  Alcotest.(check int) "no rejections either way"
    sim.Election.rejections r.Loadgen.rejections;
  Alcotest.(check (list (pair int string))) "identical cast codes"
    (sorted sim.Election.successes) (sorted r.Loadgen.successes);
  (* drive vote set consensus to the bulletin boards and compare the
     agreed final sets *)
  Runtime.end_election t;
  ignore (Runtime.run_until_idle t : int);
  let serve_final j =
    match Runtime.bb_node t j with
    | None -> Alcotest.failf "serve: no BB node %d" j
    | Some bb ->
      (match (Ddemos.Bb_node.published bb).Ddemos.Bb_node.final_set with
       | None -> Alcotest.failf "serve: BB %d has no final set" j
       | Some s -> sorted s)
  in
  let sim_final =
    match sim.Election.bb_nodes with
    | [] -> Alcotest.fail "sim: no BB nodes"
    | bb :: _ ->
      (match (Ddemos.Bb_node.published bb).Ddemos.Bb_node.final_set with
       | None -> Alcotest.fail "sim: no final set"
       | Some s -> sorted s)
  in
  for j = 0 to eq_cfg.Types.nb - 1 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "final set agrees (BB %d)" j) sim_final (serve_final j)
  done;
  Alcotest.(check (list (pair int string))) "final set = cast codes"
    (sorted r.Loadgen.successes) sim_final

(* Batching must be outcome-invisible: the same serve run with the
   batcher disabled produces the identical transcript. *)
let test_batching_transparent () =
  let run batching =
    let _, r = run_pipe_election ~batching ~seed:"batch-eq" ~clients:5 12 in
    (r.Loadgen.receipts_ok, sorted r.Loadgen.successes)
  in
  let ok_on, s_on = run true in
  let ok_off, s_off = run false in
  Alcotest.(check int) "receipts agree" ok_off ok_on;
  Alcotest.(check (list (pair int string))) "identical transcripts" s_off s_on

let () =
  Alcotest.run "serve"
    [ ("frame",
       [ Alcotest.test_case "oversize poisons" `Quick test_frame_oversize_poisons;
         Alcotest.test_case "header split" `Quick test_frame_header_split ]
       @ List.map QCheck_alcotest.to_alcotest [ prop_frame_chopped_roundtrip ]);
      ("mux",
       [ Alcotest.test_case "bad kind" `Quick test_mux_rejects_bad_kind ]
       @ List.map QCheck_alcotest.to_alcotest [ prop_mux_client_roundtrip; prop_mux_total ]);
      ("mailbox", [ Alcotest.test_case "bounds" `Quick test_mailbox_bounds ]);
      ("batcher", [ Alcotest.test_case "verdicts" `Quick test_batcher_verdicts ]);
      ("pipe", [ Alcotest.test_case "duplex close" `Quick test_pipe_duplex_and_close ]);
      ("runtime",
       [ Alcotest.test_case "all receipts" `Quick test_pipe_serving_all_receipts;
         Alcotest.test_case "backpressure sheds" `Quick test_backpressure_sheds_votes;
         Alcotest.test_case "batching transparent" `Quick test_batching_transparent;
         Alcotest.test_case "misrouted reply dropped" `Quick test_misrouted_reply_dropped ]
       @ List.map QCheck_alcotest.to_alcotest [ prop_pipe_serving_torn ]);
      ("equivalence",
       [ Alcotest.test_case "serve = sim" `Quick test_transcript_equivalence ]) ]
