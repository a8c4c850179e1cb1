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
module Node_source = Ddemos.Node_source
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
  QCheck.Test.make ~name:"mux decoder is total on random bytes" ~count:500 ~long_factor:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun junk ->
       match Mux.decode gctx junk with
       | Some _ | None -> true)

let test_mux_rejects_bad_kind () =
  let w = Dd_codec.Wire.writer () in
  Dd_codec.Wire.put_varint w 9;
  Alcotest.(check bool) "unknown kind" true (Mux.decode gctx (Dd_codec.Wire.contents w) = None)

(* Peer-link batches: MAC tags and plain fields keep the generated
   messages comparable with [=]. *)
let gen_code = QCheck.Gen.(string_size ~gen:printable (int_range 0 12))

let gen_vc_msg =
  QCheck.Gen.(
    oneof
      [ map3 (fun serial vote_code responder -> Messages.Endorse { serial; vote_code; responder })
          small_nat gen_code small_nat;
        map3
          (fun serial vote_code signer ->
             Messages.Endorsement
               { serial; vote_code; signer; tag = Auth.Mac_tag [| vote_code; "mac" |] })
          small_nat gen_code small_nat;
        map2 (fun sender serials -> Messages.Recover_request { sender; serials })
          small_nat (list_size (int_range 0 5) small_nat);
        map3
          (fun serial vote_code sender ->
             Messages.Vote_p
               { serial; vote_code; sender; part = Types.A; pos = 1;
                 share = { Dd_vss.Shamir_bytes.x = sender + 1; data = "shr" };
                 share_tag = Some (Auth.Mac_tag [| "m" |]); ucert = None })
          small_nat gen_code small_nat ])

let gen_bb_msg =
  QCheck.Gen.(
    map3
      (fun sender set x ->
         Messages.Vote_set_submit
           { sender; set; msk_share = { Dd_vss.Shamir_bytes.x; data = "msk" } })
      small_nat (list_size (int_range 0 4) (pair small_nat gen_code)) (int_range 1 255))

let gen_link =
  QCheck.Gen.(
    oneof
      [ map (fun ms -> Mux.Vc ms) (list_size (int_range 1 12) gen_vc_msg);
        map (fun ms -> Mux.Bb ms) (list_size (int_range 1 6) gen_bb_msg) ])

let link_items = function
  | Mux.Vc ms -> List.length ms
  | Mux.Bb ms -> List.length ms
  | Mux.Client_vote _ | Mux.Client_reply _ -> 1

let rejoin = function
  | Mux.Vc _ :: _ as ds -> Some (Mux.Vc (List.concat_map (function Mux.Vc ms -> ms | _ -> []) ds))
  | Mux.Bb _ :: _ as ds -> Some (Mux.Bb (List.concat_map (function Mux.Bb ms -> ms | _ -> []) ds))
  | _ -> None

(* Whole and cut at a small [max_frame], a batch decodes back to its
   messages in order, and only a lone message may exceed the cap. *)
let prop_mux_link_roundtrip =
  QCheck.Test.make ~name:"link batches roundtrip, whole and split" ~count:300
    QCheck.(pair (make gen_link) (int_range 8 200))
    (fun (msg, max_frame) ->
       let parts = Mux.encode_split ~max_frame msg in
       let decoded = List.filter_map (Mux.decode gctx) parts in
       Mux.decode gctx (Mux.encode gctx msg) = Some msg
       && List.length decoded = List.length parts
       && List.for_all2
         (fun p d -> String.length p <= max_frame || link_items d = 1)
         parts decoded
       && rejoin decoded = Some msg)

(* One message on a link keeps the one-message encoding byte for
   byte: these frames were captured before links carried batches. *)
let test_mux_single_golden () =
  let mac l = Auth.Mac_tag l in
  let endorse = Messages.Endorse { serial = 7; vote_code = "code-7"; responder = 2 } in
  let vote_p =
    Messages.Vote_p
      { serial = 3; vote_code = "vc3"; sender = 1; part = Types.B; pos = 2;
        share = { Dd_vss.Shamir_bytes.x = 2; data = "shr" };
        share_tag = Some (mac [| "m0"; "m1" |]);
        ucert =
          Some
            { Messages.u_serial = 3; u_code = "vc3";
              endorsements = [ (0, mac [| "a" |]); (2, mac [| "b" |]) ] } }
  in
  let submit =
    Messages.Vote_set_submit
      { sender = 1; set = [ (0, "c0"); (4, "c4") ];
        msk_share = { Dd_vss.Shamir_bytes.x = 2; data = "msk" } }
  in
  let hex = Dd_crypto.Sha256.hex_of_string in
  Alcotest.(check string) "endorse" "020a010706636f64652d3702"
    (hex (Mux.encode gctx (Mux.Vc [ endorse ])));
  Alcotest.(check string) "vote_p"
    "02270303037663330101020203736872010102026d30026d3103037663330200010101610201010162"
    (hex (Mux.encode gctx (Mux.Vc [ vote_p ])));
  Alcotest.(check string) "vote set submit" "0310000102000263300402633402036d736b"
    (hex (Mux.encode gctx (Mux.Bb [ submit ])))

let prop_mux_batch_smaller =
  QCheck.Test.make ~name:"a batch frame is smaller than its messages' frames" ~count:200
    (QCheck.make gen_link)
    (fun msg ->
       let framed m = String.length (Frame.encode (Mux.encode gctx m)) in
       let singles =
         match msg with
         | Mux.Vc ms -> List.map (fun m -> Mux.Vc [ m ]) ms
         | Mux.Bb ms -> List.map (fun m -> Mux.Bb [ m ]) ms
         | _ -> [ msg ]
       in
       List.length singles < 2
       || framed msg < List.fold_left (fun acc m -> acc + framed m) 0 singles)

(* Junk behind each batch kind: a short count, a count past the bytes
   left, a batch nested as an item, a trailing byte, and every strict
   prefix of an elided VOTE_P as an item. Each is malformed as a whole;
   random tails must not raise either. *)
let prop_mux_batch_total =
  let module Wire = Dd_codec.Wire in
  let endorse = Messages.Endorse { serial = 1; vote_code = "c"; responder = 0 } in
  let elided =
    Messages.encode_vc_msg
      (Messages.Vote_p
         { serial = 1; vote_code = "c"; sender = 2; part = Types.B; pos = 0;
           share = { Dd_vss.Shamir_bytes.x = 3; data = "shr" };
           share_tag = Some (Auth.Mac_tag [| "m" |]); ucert = None })
  in
  let submit =
    Messages.Vote_set_submit
      { sender = 0; set = [ (1, "c") ]; msk_share = { Dd_vss.Shamir_bytes.x = 1; data = "k" } }
  in
  let frame kind count items =
    let w = Wire.writer () in
    Wire.put_varint w kind;
    Wire.put_varint w count;
    List.iter (Wire.put_bytes w) items;
    Wire.contents w
  in
  let cases kind item nested =
    [ frame kind 0 [];
      frame kind 1 [ item ];
      frame kind 3 [ item; item ];
      frame kind 2 [ item; nested ];
      frame kind 2 [ item; item ] ^ "\000" ]
  in
  let vc_item = Messages.encode_vc_msg endorse in
  let bb_item = Messages.encode_bb_msg submit in
  let fixed =
    cases 4 vc_item (Mux.encode gctx (Mux.Vc [ endorse; endorse ]))
    @ cases 4 elided (Mux.encode gctx (Mux.Vc [ endorse; endorse ]))
    @ cases 5 bb_item (Mux.encode gctx (Mux.Bb [ submit; submit ]))
    @ List.init (String.length elided) (fun n ->
        frame 4 2 [ elided; String.sub elided 0 n ])
  in
  QCheck.Test.make ~name:"mux decoder is total on junk batches" ~count:300 ~long_factor:100
    QCheck.(pair (int_range 4 5) (string_of_size (QCheck.Gen.int_range 0 40)))
    (fun (kind, junk) ->
       List.for_all (fun f -> Mux.decode gctx f = None) fixed
       && (match Mux.decode gctx (String.make 1 (Char.chr kind) ^ junk) with
           | Some _ | None -> true))

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
  let keys = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~seed:"batch-clique" ~n:4 in
  let b =
    Batcher.create ~min_batch:4 ~keys:keys.(0) ~election_id ~ea_signer:3
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
let run_pipe_election ?(batching = true) ?(chopped = false) ?(wrap = Fun.id)
    ?(tick = Runtime.step) ~seed ~clients n_votes =
  let src = Runtime.source_prf serve_cfg ~seed in
  let params = { Runtime.default_params with Runtime.batching } in
  let t = Runtime.create ~params src in
  let chopper = Drbg.create ~seed:("chopper|" ^ seed) in
  let conn_for ~client:_ ~node =
    wrap
      (if chopped then
         Runtime.client_conn ~recv_chunk:(fun () -> 1 + Drbg.int chopper 8) t ~node
       else Runtime.client_conn t ~node)
  in
  let lg =
    { Loadgen.lg_clients = clients; lg_seed = seed; lg_max_steps = 200_000 }
  in
  let r =
    Loadgen.run ~params:lg ~conn_for ~step:(fun () -> tick t)
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

(* Coalescing: each tick adds at most one frame per peer link beyond
   the frames the clients sent, while some tick's links carry more
   messages than there are links. A client frame is one vote, and
   [step] counts frames plus messages processed. *)
let test_one_frame_per_link_per_tick () =
  let client_frames = ref 0 in
  let count_sent conn =
    let dec = Frame.create () in
    { conn with
      Transport.send =
        (fun s ~pos ~len ->
           let k = conn.Transport.send s ~pos ~len in
           Frame.feed dec (String.sub s pos k);
           let rec pop () =
             match Frame.pop dec with Some _ -> incr client_frames; pop () | None -> ()
           in
           pop ();
           k) }
  in
  let links = serve_cfg.Types.nv * (serve_cfg.Types.nv - 1) in
  let ticks = ref 0 and seen = ref 0 and most_frames = ref 0 and most_msgs = ref 0 in
  let tick t =
    let frames0 = (Runtime.stats t).Runtime.frames_in in
    let n = Runtime.step t in
    let frames = (Runtime.stats t).Runtime.frames_in - frames0 in
    let votes = !client_frames - !seen in
    seen := !client_frames;
    incr ticks;
    most_frames := max !most_frames (frames - votes);
    most_msgs := max !most_msgs (n - frames - votes);
    n
  in
  let t, r = run_pipe_election ~wrap:count_sent ~tick ~seed:"one-frame" ~clients:5 12 in
  let st = Runtime.stats t in
  Alcotest.(check int) "all receipts" 12 r.Loadgen.receipts_ok;
  Alcotest.(check int) "nothing shed" 0 (st.Runtime.votes_shed + st.Runtime.peer_dropped);
  Alcotest.(check bool) "at most one frame per link per tick" true (!most_frames <= links);
  Alcotest.(check bool) "frames_in within clients + ticks x links" true
    (st.Runtime.frames_in <= !client_frames + (!ticks * links));
  Alcotest.(check bool) "a tick carried more messages than links" true (!most_msgs > links)

(* --- transcript equivalence against the simulator ----------------------- *)

let eq_cfg = { Types.default_config with Types.n_voters = 8; Types.m_options = 3 }
let eq_setup = lazy (Ea.setup eq_cfg ~seed:"serve-eq-setup")
let eq_votes = [ (0, 0); (1, 1); (2, 1); (3, 2); (4, 0); (5, 1); (6, 2); (7, 1) ]

let sorted l = List.sort compare l

(* The same seeded workload through the simulator and through the
   serving runtime must cast the same codes and agree on the final
   set: the backends consume one node source and share the sans-IO
   nodes and the voter model, so any divergence is a serving-layer
   bug. *)
let test_transcript_equivalence () =
  let setup = Lazy.force eq_setup in
  let src = Node_source.of_setup setup in
  let seed = "serve-eq" in
  let clients = 3 in
  (* simulator run *)
  let p =
    Election.default_params ~fidelity:(Election.Source src) eq_cfg
      ~votes:(List.map (fun (s, c) -> { Election.vi_serial = s; Election.vi_choice = c }) eq_votes)
  in
  let sim = Election.run { p with Election.seed; concurrent_clients = clients } in
  (* serving run over duplex pipes, batching on *)
  let t = Runtime.create src in
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

(* The equivalence workload served with [params], driven through vote
   set consensus: the result, the BB nodes' final sets and the stats.
   [route] maps the node a voter picks to the node that serves it. *)
let serve_eq_run ?(observe = ignore) ?(route = Fun.id) ~clients params =
  let setup = Lazy.force eq_setup in
  let t = Runtime.create ~params (Node_source.of_setup setup) in
  observe t;
  let r =
    Loadgen.run
      ~params:{ Loadgen.default_params with Loadgen.lg_clients = clients; lg_seed = "serve-eq" }
      ~conn_for:(fun ~client:_ ~node -> Runtime.client_conn t ~node:(route node))
      ~step:(fun () -> Runtime.step t)
      ~ballot_for:(fun serial -> setup.Ea.ballots.(serial))
      ~nv:eq_cfg.Types.nv
      ~votes:(List.map (fun (s, c) -> { Loadgen.serial = s; choice = c }) eq_votes)
      ()
  in
  Runtime.end_election t;
  ignore (Runtime.run_until_idle t : int);
  let finals =
    List.init eq_cfg.Types.nb (fun j ->
        Option.bind (Runtime.bb_node t j) (fun bb ->
            Option.map sorted (Ddemos.Bb_node.published bb).Ddemos.Bb_node.final_set))
  in
  (r, finals, Runtime.stats t)

(* A [max_frame] below what one tick puts on a link, but above the
   largest single message: links cut their batches into more frames,
   and the election comes out the same. Every vote goes to node 0, so
   its links carry all eight full VOTE_Ps in one tick; spread over the
   nodes, no batch outgrows the ANNOUNCE, the largest message. *)
let test_max_frame_split () =
  let run max_frame =
    serve_eq_run ~route:(fun _ -> 0) ~clients:8 { Runtime.default_params with Runtime.max_frame }
  in
  let r, finals, st = run Runtime.default_params.Runtime.max_frame in
  let r', finals', st' = run 2048 in
  Alcotest.(check int) "receipts agree" r.Loadgen.receipts_ok r'.Loadgen.receipts_ok;
  Alcotest.(check int) "all receipts" (List.length eq_votes) r'.Loadgen.receipts_ok;
  Alcotest.(check (list (pair int string))) "identical cast codes"
    (sorted r.Loadgen.successes) (sorted r'.Loadgen.successes);
  Alcotest.(check bool) "every BB has a final set" true (List.for_all Option.is_some finals);
  Alcotest.(check (list (option (list (pair int string))))) "final sets agree" finals finals';
  Alcotest.(check int) "no malformed frames" 0 (st.Runtime.malformed + st'.Runtime.malformed);
  Alcotest.(check bool) "more frames" true (st'.Runtime.frames_in > st.Runtime.frames_in)

(* UCERT elision on the links: in a fault-free vote only the responder,
   which formed the UCERT, sends it, in its three VOTE_Ps; every other
   node's VOTE_P elides it, and no node needs to pull it while votes
   are cast. Twelve VOTE_Ps per vote, three carrying the UCERT. *)
let test_vote_p_elision_on_links () =
  let responder = Hashtbl.create 8 and sent = Hashtbl.create 8 in
  let casting = ref true and pulls = ref 0 in
  let observe t =
    Runtime.observe_links t (fun ~src ~dst -> function
      | Messages.Endorse { serial; responder = r; _ } -> Hashtbl.replace responder serial r
      | Messages.Vote_p { serial; ucert; _ } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt sent serial) in
        Hashtbl.replace sent serial ((src, dst, Option.is_some ucert) :: prev)
      | Messages.Announce_batch _ -> casting := false
      | Messages.Recover_request _ -> if !casting then incr pulls
      | _ -> ())
  in
  let r, _, _ = serve_eq_run ~observe ~clients:3 Runtime.default_params in
  Alcotest.(check int) "all receipts" (List.length eq_votes) r.Loadgen.receipts_ok;
  Alcotest.(check int) "no pull while casting" 0 !pulls;
  List.iter
    (fun (serial, _) ->
       let resp =
         match Hashtbl.find_opt responder serial with
         | Some n -> n
         | None -> Alcotest.failf "serial %d: no responder" serial
       in
       let vps = Option.value ~default:[] (Hashtbl.find_opt sent serial) in
       let full = List.filter (fun (_, _, full) -> full) vps in
       let name what = Printf.sprintf "serial %d: %s" serial what in
       Alcotest.(check int) (name "VOTE_Ps") 12 (List.length vps);
       Alcotest.(check int) (name "with a UCERT") 3 (List.length full);
       Alcotest.(check (list int)) (name "all from the responder") [ resp; resp; resp ]
         (List.map (fun (src, _, _) -> src) full))
    eq_votes

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
       [ Alcotest.test_case "bad kind" `Quick test_mux_rejects_bad_kind;
         Alcotest.test_case "single-message golden bytes" `Quick test_mux_single_golden ]
       @ List.map QCheck_alcotest.to_alcotest
         [ prop_mux_client_roundtrip; prop_mux_total; prop_mux_link_roundtrip;
           prop_mux_batch_smaller; prop_mux_batch_total ]);
      ("mailbox", [ Alcotest.test_case "bounds" `Quick test_mailbox_bounds ]);
      ("batcher", [ Alcotest.test_case "verdicts" `Quick test_batcher_verdicts ]);
      ("pipe", [ Alcotest.test_case "duplex close" `Quick test_pipe_duplex_and_close ]);
      ("runtime",
       [ Alcotest.test_case "all receipts" `Quick test_pipe_serving_all_receipts;
         Alcotest.test_case "backpressure sheds" `Quick test_backpressure_sheds_votes;
         Alcotest.test_case "batching transparent" `Quick test_batching_transparent;
         Alcotest.test_case "misrouted reply dropped" `Quick test_misrouted_reply_dropped;
         Alcotest.test_case "one frame per peer link per tick" `Quick
           test_one_frame_per_link_per_tick;
         Alcotest.test_case "max_frame split" `Quick test_max_frame_split;
         Alcotest.test_case "VOTE_P elides UCERT to holders" `Quick
           test_vote_p_elision_on_links ]
       @ List.map QCheck_alcotest.to_alcotest [ prop_pipe_serving_torn ]);
      ("equivalence",
       [ Alcotest.test_case "serve = sim" `Quick test_transcript_equivalence ]) ]
