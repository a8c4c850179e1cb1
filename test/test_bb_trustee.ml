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
  let init, board_for = Lazy.force bb_source in
  List.init cfg.Types.nb (fun i ->
      Bb_node.create ~board:(board_for i) ~cfg ~init ~me:i ())

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
    ((Bb_node.published bb).Bb_node.msk = None);
  Bb_node.on_vote_set_submit bb ~sender:2 ~set:(the_set ()) ~msk_share:msk_shares.(2);
  match (Bb_node.published bb).Bb_node.msk with
  | Some msk -> Alcotest.(check string) "recovered despite corrupt share" (Ballot_gen.msk ~seed) msk
  | None -> Alcotest.fail "msk not reconstructed"

(* Esum sums the commitments the final set's codes select, so it waits
   for the msk to open those codes: a final set published first must not
   yield an all-zero Esum. *)
let test_esum_waits_for_opened_codes () =
  let init, board_for = Lazy.force bb_source in
  let backing = Dd_store.Device.Mem.create () in
  let bb =
    Bb_node.create ~durable:(Dd_store.Device.Mem.device backing) ~board:(board_for 0) ~cfg
      ~init ~me:0 ()
  in
  submit_all ~senders:[ 0; 1 ] bb;
  let pub = Bb_node.published bb in
  Alcotest.(check bool) "final set published" true (pub.Bb_node.final_set <> None);
  Alcotest.(check bool) "msk not yet" true (pub.Bb_node.msk = None);
  Alcotest.(check bool) "no Esum before the msk" true (pub.Bb_node.encrypted_tally = None);
  submit_all ~senders:[ 2 ] bb;
  (* a board whose final set and msk complete on the same submission *)
  let once = List.hd (make_bbs ()) in
  let msk_shares =
    Ballot_gen.msk_shares ~seed ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
  in
  Bb_node.on_vote_set_submit once ~sender:0 ~set:(the_set ()) ~msk_share:msk_shares.(0);
  Bb_node.on_vote_set_submit once ~sender:1 ~set:[] ~msk_share:msk_shares.(1);
  Bb_node.on_vote_set_submit once ~sender:2 ~set:(the_set ()) ~msk_share:msk_shares.(2);
  let esum b =
    match (Bb_node.published b).Bb_node.encrypted_tally with
    | Some e -> Array.to_list (Array.map Dd_commit.Elgamal.encode e)
    | None -> Alcotest.fail "no Esum"
  in
  Alcotest.(check (list string)) "Esum = all-at-once board's" (esum once) (esum bb);
  let bb' =
    Bb_node.create ~durable:(Dd_store.Device.Mem.device backing) ~board:(board_for 0) ~cfg
      ~init ~me:0 ()
  in
  Alcotest.(check string) "replay = live" (Bb_node.observable bb) (Bb_node.observable bb')

(* --- trustees end-to-end over direct wiring ------------------------------ *)

let run_trustee_phase bbs =
  let s = Lazy.force setup in
  let trustees = Array.make cfg.Types.nt None in
  let exchange_queue = ref [] in
  for i = 0 to cfg.Types.nt - 1 do
    let env =
      { Trustee.me = i; cfg; gctx = Dd_group.Group_ctx.default ();
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
  let bbs = make_bbs () in
  List.iter (fun bb -> submit_all bb) bbs;
  run_trustee_phase bbs;
  match Ddemos.Auditor.assemble ~cfg bbs with
  | None -> Alcotest.fail "no audit view"
  | Some view ->
    let checks = Ddemos.Auditor.audit view in
    List.iter
      (fun c ->
         Alcotest.(check bool)
           (Printf.sprintf "check %s" c.Ddemos.Auditor.name) true c.Ddemos.Auditor.ok)
      checks

(* --- trustee posts in adversarial orders --------------------------------- *)

module Trustee_payload = Ddemos.Trustee_payload
module Elgamal = Dd_commit.Elgamal
module Nat = Dd_bignum.Nat

(* Every trustee's posts of an honest run, per trustee in posting order,
   captured instead of delivered. *)
let honest_posts =
  lazy
    (let posts = Array.make cfg.Types.nt [] in
     let bbs = make_bbs () in
     List.iter (fun bb -> submit_all bb) bbs;
     let s = Lazy.force setup in
     let exchanges = ref [] in
     let trustees =
       Array.init cfg.Types.nt (fun i ->
           Trustee.create
             { Trustee.me = i; cfg; gctx = Dd_group.Group_ctx.default ();
               init = s.Ea.trustee_init.(i);
               keys = s.Ea.trustee_keys.(i);
               send_trustee = (fun ~dst ex -> exchanges := (dst, ex) :: !exchanges);
               post_bb = (fun payload -> posts.(i) <- posts.(i) @ [ payload ]);
               durable = None })
     in
     (match Bb_reader.voted_positions ~cfg bbs with
      | Bb_reader.Agreed voted -> Array.iter (Trustee.on_election_data ~voted) trustees
      | Bb_reader.No_majority -> Alcotest.fail "no majority voted view");
     List.iter (fun (dst, ex) -> Trustee.on_exchange trustees.(dst) ex) (List.rev !exchanges);
     posts)

(* A Byzantine trustee's version of a post: every opening and tally
   share carries a wrong message scalar. *)
let corrupt (payload : Trustee_payload.t) =
  let bad (sh : Dd_vss.Elgamal_vss.share) = { sh with Dd_vss.Elgamal_vss.msg = Nat.of_int 7 } in
  match payload with
  | Trustee_payload.Openings entries ->
    Trustee_payload.Openings
      (List.map
         (fun (e : Trustee_payload.opening_entry) ->
            { e with
              Trustee_payload.o_shares = Array.map (Array.map bad) e.Trustee_payload.o_shares })
         entries)
  | Trustee_payload.Tally_share { shares; ballots_counted } ->
    Trustee_payload.Tally_share { shares = Array.map bad shares; ballots_counted }
  | Trustee_payload.Zk_final _ -> payload

let post bb ~trustee payloads =
  List.iter (Bb_node.on_trustee_post bb ~trustee) payloads

(* The board state these tests compare: sorted unused-part openings and
   the tally. *)
let openings_and_tally bb =
  let pub = Bb_node.published bb in
  let openings =
    Hashtbl.fold
      (fun (serial, part) (o : Elgamal.opening array array) acc ->
         let scalars =
           Array.map
             (Array.map (fun (op : Elgamal.opening) ->
                  (Nat.to_hex op.Elgamal.msg, Nat.to_hex op.Elgamal.rand)))
             o
         in
         ((serial, Types.part_index part), scalars) :: acc)
      pub.Bb_node.unused_openings []
    |> List.sort compare
  in
  (openings, pub.Bb_node.tally)

let honest_board () =
  let bb = List.hd (make_bbs ()) in
  submit_all bb;
  Array.iteri (fun i payloads -> post bb ~trustee:i payloads) (Lazy.force honest_posts);
  bb

(* Honest, corrupted, honest: the board must search past the newest
   ht posts to the honest pair. *)
let post_honest_corrupt_honest bb =
  let posts = Lazy.force honest_posts in
  post bb ~trustee:0 posts.(0);
  post bb ~trustee:1 (List.map corrupt posts.(1));
  post bb ~trustee:2 posts.(2)

let test_corrupt_trustee_between_honest () =
  let bb = List.hd (make_bbs ()) in
  submit_all bb;
  post_honest_corrupt_honest bb;
  let openings, tally = openings_and_tally bb in
  let ref_openings, ref_tally = openings_and_tally (honest_board ()) in
  Alcotest.(check int) "every unused part opened" (List.length ref_openings)
    (List.length openings);
  Alcotest.(check bool) "openings = honest run's" true (openings = ref_openings);
  Alcotest.(check (option (array int))) "tally = honest run's" ref_tally tally;
  Alcotest.(check (option (array int))) "tally" (Some [| 1; 1 |]) tally

let test_tally_shares_before_esum () =
  let bb = List.hd (make_bbs ()) in
  Array.iteri
    (fun i payloads ->
       post bb ~trustee:i
         (List.filter
            (function Trustee_payload.Tally_share _ -> true | _ -> false)
            payloads))
    (Lazy.force honest_posts);
  Alcotest.(check bool) "no Esum yet: no tally" true
    ((Bb_node.published bb).Bb_node.tally = None);
  submit_all bb;
  Alcotest.(check (option (array int))) "tally once Esum is computed" (Some [| 1; 1 |])
    (Bb_node.published bb).Bb_node.tally

let test_trustee_counted_once () =
  let bb = List.hd (make_bbs ()) in
  submit_all bb;
  let openings_of payloads =
    List.filter (function Trustee_payload.Openings _ -> true | _ -> false) payloads
  in
  let posts = Lazy.force honest_posts in
  (* trustee 0 posts its own shares, then trustee 1's (a different x) *)
  post bb ~trustee:0 (openings_of posts.(0));
  post bb ~trustee:0 (openings_of posts.(1));
  Alcotest.(check int) "one trustee: nothing opened" 0
    (Hashtbl.length (Bb_node.published bb).Bb_node.unused_openings);
  post bb ~trustee:2 (openings_of posts.(2));
  Alcotest.(check bool) "a second trustee opens" true
    (Hashtbl.mem (Bb_node.published bb).Bb_node.unused_openings (1, Types.A))

let test_recover_replays_trustee_search () =
  let init, board_for = Lazy.force bb_source in
  let backing = Dd_store.Device.Mem.create () in
  let bb =
    Bb_node.create ~durable:(Dd_store.Device.Mem.device backing) ~board:(board_for 0) ~cfg
      ~init ~me:0 ()
  in
  submit_all bb;
  post_honest_corrupt_honest bb;
  let bb' =
    Bb_node.create ~durable:(Dd_store.Device.Mem.device backing) ~board:(board_for 0) ~cfg
      ~init ~me:0 ()
  in
  Alcotest.(check bool) "live board published the tally" true
    ((Bb_node.published bb).Bb_node.tally <> None);
  Alcotest.(check string) "replay = live" (Bb_node.observable bb) (Bb_node.observable bb')

(* --- hostile input --------------------------------------------------------- *)

(* Random, truncated and bit-flipped [Messages.encode_bb_msg] bytes of an
   honest run's writes (every VC's vote-set submission and every
   trustee post) go through [decode_bb_msg] into [Bb_node.handle] of a
   fresh board. The hostile writes sit among intact ones, so the board
   gets far enough to open codes, compute Esum and search trustee
   shares. No exception may escape. *)
let prop_bb_byte_fuzz =
  let seeds =
    lazy
      (let msk_shares =
         Ballot_gen.msk_shares ~seed ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
       in
       let submits =
         List.init cfg.Types.nv (fun sender ->
             Messages.Vote_set_submit
               { sender; set = the_set (); msk_share = msk_shares.(sender) })
       in
       let posts =
         List.concat
           (Array.to_list
              (Array.mapi
                 (fun trustee payloads ->
                    List.map (fun payload -> Messages.Trustee_post { trustee; payload }) payloads)
                 (Lazy.force honest_posts)))
       in
       Array.of_list (List.map Messages.encode_bb_msg (submits @ posts)))
  in
  let mutate s = function
    | `Random r -> r
    | `Truncate k -> String.sub s 0 (k mod (String.length s + 1))
    | `Flip bits ->
      let b = Bytes.of_string s in
      List.iter
        (fun k ->
           let i = k / 8 mod Bytes.length b in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (k mod 8)))))
        bits;
      Bytes.to_string b
  in
  let gen =
    QCheck.Gen.(
      triple nat bool
        (list_size (int_range 1 4)
           (pair nat
              (frequency
                 [ (6, map (fun l -> `Flip l) (list_size (int_range 1 3) nat));
                   (2, map (fun r -> `Random r) (string_size (int_range 0 80)));
                   (1, map (fun k -> `Truncate k) nat) ]))))
  in
  (* the honest writes before position j, the mutated ones, then (if
     [rest]) the honest writes from j on *)
  let bytes_of (j, rest, steps) =
    let seeds = Lazy.force seeds in
    let n = Array.length seeds in
    let j = j mod (n + 1) in
    Array.to_list (Array.sub seeds 0 j)
    @ List.map (fun (i, m) -> mutate seeds.(i mod n) m) steps
    @ (if rest then Array.to_list (Array.sub seeds j (n - j)) else [])
  in
  QCheck.Test.make ~name:"BB handlers survive random and bit-flipped writes" ~count:1_000
    ~long_factor:100
    (QCheck.make
       ~print:(fun case -> String.concat "; " (List.map (Printf.sprintf "%S") (bytes_of case)))
       gen)
    (fun case ->
       let bb = List.hd (make_bbs ()) in
       List.iter
         (fun bytes -> Option.iter (Bb_node.handle bb) (Messages.decode_bb_msg bytes))
         (bytes_of case);
       true)

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
         Alcotest.test_case "corrupt msk share" `Quick test_corrupt_msk_share_tolerated;
         Alcotest.test_case "Esum waits for opened codes" `Quick
           test_esum_waits_for_opened_codes ]);
      ("trustees",
       [ Alcotest.test_case "tally production" `Quick test_trustees_produce_tally;
         Alcotest.test_case "audit after pipeline" `Quick test_full_audit_after_direct_pipeline;
         Alcotest.test_case "corrupt trustee between honest" `Quick
           test_corrupt_trustee_between_honest;
         Alcotest.test_case "tally shares before Esum" `Quick test_tally_shares_before_esum;
         Alcotest.test_case "trustee counted once" `Quick test_trustee_counted_once;
         Alcotest.test_case "recover replays trustee posts" `Quick
           test_recover_replays_trustee_search;
         QCheck_alcotest.to_alcotest prop_bb_byte_fuzz ]);
      ("bb-reader",
       [ Alcotest.test_case "majority" `Quick test_reader_majority;
         Alcotest.test_case "no majority" `Quick test_reader_no_majority ]) ]
