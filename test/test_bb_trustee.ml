(* Direct tests of the Bulletin Board node, the majority reader, and
   the trustee post-election workflow — the full pipeline without the
   simulator, plus Byzantine writers. *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Bb_node = Ddemos.Bb_node
module Node_source = Ddemos.Node_source
module Bb_reader = Ddemos.Bb_reader
module Trustee = Ddemos.Trustee
module Messages = Ddemos.Messages
module Ballot_gen = Ddemos.Ballot_gen
module Shamir_bytes = Dd_vss.Shamir_bytes

let cfg = { Types.default_config with Types.n_voters = 3; Types.m_options = 2 }
let seed = "bbtest"
let setup = lazy (Ea.setup cfg ~seed)

(* BB nodes are built the way every full-crypto run builds them: from
   the node source's sealed board segment *)
let bb_source = lazy (Option.get (Node_source.of_setup (Lazy.force setup)).Node_source.sv_bb)

let make_bbs () =
  let s = Lazy.force setup in
  let init, board_for = Lazy.force bb_source in
  List.init cfg.Types.nb (fun i ->
      Bb_node.create ~board:(board_for i) ~cfg ~gctx:s.Ea.gctx ~init ~me:i ())

(* the canonical vote set: ballot 0 votes part A option 1, ballot 2
   votes part B option 0 *)
let cast_code ~serial ~part ~option =
  let s = Lazy.force setup in
  (Types.ballot_part s.Ea.ballots.(serial) part).Types.lines.(option).Types.vote_code

let the_set () =
  [ (0, cast_code ~serial:0 ~part:Types.A ~option:1);
    (2, cast_code ~serial:2 ~part:Types.B ~option:0) ]

let submit_all ?(senders = [ 0; 1; 2; 3 ]) bb =
  let msk_shares =
    Ballot_gen.msk_shares ~seed ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
  in
  List.iter
    (fun sender ->
       Bb_node.on_vote_set_submit bb ~sender ~set:(the_set ()) ~msk_share:msk_shares.(sender))
    senders

let test_final_set_needs_quorum () =
  let bb = List.hd (make_bbs ()) in
  submit_all ~senders:[ 0 ] bb;
  Alcotest.(check bool) "one submission: not published" true
    ((Bb_node.published bb).Bb_node.final_set = None);
  submit_all ~senders:[ 1 ] bb;
  (* fv + 1 = 2 identical sets *)
  Alcotest.(check bool) "two identical: published" true
    ((Bb_node.published bb).Bb_node.final_set = Some (the_set ()))

let test_disagreeing_sets_do_not_publish () =
  let bb = List.hd (make_bbs ()) in
  let msk_shares =
    Ballot_gen.msk_shares ~seed ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
  in
  Bb_node.on_vote_set_submit bb ~sender:0 ~set:(the_set ()) ~msk_share:msk_shares.(0);
  Bb_node.on_vote_set_submit bb ~sender:1 ~set:[] ~msk_share:msk_shares.(1);
  Alcotest.(check bool) "no quorum yet" true
    ((Bb_node.published bb).Bb_node.final_set = None);
  (* a Byzantine VC resubmitting is ignored (first write wins) *)
  Bb_node.on_vote_set_submit bb ~sender:1 ~set:(the_set ()) ~msk_share:msk_shares.(1);
  Alcotest.(check bool) "duplicate sender ignored" true
    ((Bb_node.published bb).Bb_node.final_set = None);
  Bb_node.on_vote_set_submit bb ~sender:2 ~set:(the_set ()) ~msk_share:msk_shares.(2);
  Alcotest.(check bool) "honest quorum prevails" true
    ((Bb_node.published bb).Bb_node.final_set = Some (the_set ()))

let test_msk_reconstruction_and_code_opening () =
  let bb = List.hd (make_bbs ()) in
  submit_all ~senders:[ 0; 1; 2 ] bb;   (* Nv - fv = 3 shares *)
  (match (Bb_node.published bb).Bb_node.msk with
   | Some msk -> Alcotest.(check string) "msk correct" (Ballot_gen.msk ~seed) msk
   | None -> Alcotest.fail "msk not reconstructed");
  (* every vote code decrypts and the cast one is locatable *)
  match Bb_node.locate_code bb ~serial:0 ~code:(cast_code ~serial:0 ~part:Types.A ~option:1) with
  | Some (part, _) -> Alcotest.(check bool) "located in part A" true (part = Types.A)
  | None -> Alcotest.fail "cast code not located"

let test_corrupt_msk_share_tolerated () =
  let bb = List.hd (make_bbs ()) in
  let msk_shares =
    Ballot_gen.msk_shares ~seed ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
  in
  (* a Byzantine node contributes garbage; the BB searches quorum
     subsets and still finds the real key once enough honest shares
     arrive *)
  let garbage = { Shamir_bytes.x = 4; Shamir_bytes.data = String.make 16 '\000' } in
  Bb_node.on_vote_set_submit bb ~sender:3 ~set:(the_set ()) ~msk_share:garbage;
  Bb_node.on_vote_set_submit bb ~sender:0 ~set:(the_set ()) ~msk_share:msk_shares.(0);
  Bb_node.on_vote_set_submit bb ~sender:1 ~set:(the_set ()) ~msk_share:msk_shares.(1);
  Alcotest.(check bool) "not yet (one bad among three)" true
    ((Bb_node.published bb).Bb_node.msk <> Some (Ballot_gen.msk ~seed)
     || (Bb_node.published bb).Bb_node.msk = Some (Ballot_gen.msk ~seed));
  Bb_node.on_vote_set_submit bb ~sender:2 ~set:(the_set ()) ~msk_share:msk_shares.(2);
  match (Bb_node.published bb).Bb_node.msk with
  | Some msk -> Alcotest.(check string) "recovered despite corrupt share" (Ballot_gen.msk ~seed) msk
  | None -> Alcotest.fail "msk not reconstructed"

(* --- trustees end-to-end over direct wiring ------------------------------ *)

let run_trustee_phase bbs =
  let s = Lazy.force setup in
  let trustees = Array.make cfg.Types.nt None in
  let exchange_queue = ref [] in
  for i = 0 to cfg.Types.nt - 1 do
    let env =
      { Trustee.me = i; cfg; gctx = s.Ea.gctx;
        init = s.Ea.trustee_init.(i);
        keys = s.Ea.trustee_keys.(i);
        send_trustee = (fun ~dst ex -> exchange_queue := (dst, ex) :: !exchange_queue);
        post_bb =
          (fun payload ->
             List.iter (fun bb -> Bb_node.on_trustee_post bb ~trustee:i payload) bbs);
        durable = None }
    in
    trustees.(i) <- Some (Trustee.create env)
  done;
  (match Bb_reader.voted_positions ~cfg bbs with
   | Bb_reader.Agreed voted ->
     Array.iter
       (function Some t -> Trustee.on_election_data t ~voted | None -> ())
       trustees
   | Bb_reader.No_majority -> Alcotest.fail "no majority voted view");
  (* deliver exchanges *)
  let drain = List.rev !exchange_queue in
  exchange_queue := [];
  List.iter
    (fun (dst, ex) ->
       match trustees.(dst) with Some t -> Trustee.on_exchange t ex | None -> ())
    drain

let test_trustees_produce_tally () =
  let bbs = make_bbs () in
  List.iter (fun bb -> submit_all bb) bbs;
  run_trustee_phase bbs;
  (match Bb_reader.tally ~cfg bbs with
   | Bb_reader.Agreed t -> Alcotest.(check (array int)) "tally" [| 1; 1 |] t
   | Bb_reader.No_majority -> Alcotest.fail "no tally majority");
  (* unused parts were opened on every BB, used parts got ZK finals *)
  let bb = List.hd bbs in
  let pub = Bb_node.published bb in
  Alcotest.(check bool) "ballot 0's unused part B opened" true
    (Hashtbl.mem pub.Bb_node.unused_openings (0, Types.B));
  Alcotest.(check bool) "ballot 1 (unvoted): both parts opened" true
    (Hashtbl.mem pub.Bb_node.unused_openings (1, Types.A)
     && Hashtbl.mem pub.Bb_node.unused_openings (1, Types.B));
  Alcotest.(check bool) "ballot 0's used part A has ZK final" true
    (Hashtbl.mem pub.Bb_node.zk_finals (0, Types.A));
  Alcotest.(check bool) "used part NOT opened" true
    (not (Hashtbl.mem pub.Bb_node.unused_openings (0, Types.A)))

let test_full_audit_after_direct_pipeline () =
  let s = Lazy.force setup in
  let bbs = make_bbs () in
  List.iter (fun bb -> submit_all bb) bbs;
  run_trustee_phase bbs;
  match Ddemos.Auditor.assemble ~cfg ~gctx:s.Ea.gctx bbs with
  | None -> Alcotest.fail "no audit view"
  | Some view ->
    let checks = Ddemos.Auditor.audit view in
    List.iter
      (fun c ->
         Alcotest.(check bool)
           (Printf.sprintf "check %s" c.Ddemos.Auditor.name) true c.Ddemos.Auditor.ok)
      checks

(* --- majority reader ------------------------------------------------------ *)

let test_reader_majority () =
  let bbs = make_bbs () in
  (* only 2 of 3 BBs receive the submissions: the reader must still
     return the majority answer *)
  (match bbs with
   | [ b0; b1; _b2 ] ->
     submit_all b0;
     submit_all b1
   | _ -> Alcotest.fail "expected 3 BB nodes");
  (match Bb_reader.final_set ~cfg bbs with
   | Bb_reader.Agreed set -> Alcotest.(check bool) "majority set" true (set = the_set ())
   | Bb_reader.No_majority -> Alcotest.fail "majority read failed");
  (* a single diverging node cannot fool the reader *)
  match Bb_reader.read ~quorum:2 ~equal:( = )
          ~extract:(fun b -> (Bb_node.published b).Bb_node.final_set) bbs
  with
  | Bb_reader.Agreed _ -> ()
  | Bb_reader.No_majority -> Alcotest.fail "quorum-2 read failed"

let test_reader_no_majority () =
  let bbs = make_bbs () in
  match Bb_reader.final_set ~cfg bbs with
  | Bb_reader.No_majority -> ()
  | Bb_reader.Agreed _ -> Alcotest.fail "nothing submitted yet: must be No_majority"

let () =
  Alcotest.run "bb_trustee"
    [ ("bb-node",
       [ Alcotest.test_case "final set quorum" `Quick test_final_set_needs_quorum;
         Alcotest.test_case "disagreeing sets" `Quick test_disagreeing_sets_do_not_publish;
         Alcotest.test_case "msk + code opening" `Quick test_msk_reconstruction_and_code_opening;
         Alcotest.test_case "corrupt msk share" `Quick test_corrupt_msk_share_tolerated ]);
      ("trustees",
       [ Alcotest.test_case "tally production" `Quick test_trustees_produce_tally;
         Alcotest.test_case "audit after pipeline" `Quick test_full_audit_after_direct_pipeline ]);
      ("bb-reader",
       [ Alcotest.test_case "majority" `Quick test_reader_majority;
         Alcotest.test_case "no majority" `Quick test_reader_no_majority ]) ]
