(* The streaming election store end to end:
   - chunked Ea.setup is bit-identical to the monolithic one, for every
     chunk size (the DRBG fork-order discipline);
   - write_setup / resume_setup reproduce byte-identical segment files
     after a crash at an arbitrary torn byte;
   - a slice audit needs only its own chunk's bytes: every other chunk
     of the device can be garbage (the independent-auditor soundness
     pin, see docs/INVARIANTS.md);
   - the in-memory writer (store_setup) and the streamed one
     (write_setup) produce the same segment bytes;
   - an election served from sealed segments (Node_source.of_layout)
     matches its twin run from an in-memory setup (Node_source.of_setup):
     same receipts, same tally, same board root, and the full audit plus
     a slice audit pass;
   - the two sources are one: same node seed and board root, and the
     serving runtime over either casts the same codes and agrees on the
     same final sets. *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Election = Ddemos.Election
module Election_store = Ddemos.Election_store
module Node_source = Ddemos.Node_source
module Auditor = Ddemos.Auditor
module Bb_node = Ddemos.Bb_node
module Board = Ddemos.Board
module Device = Dd_store.Device
module Segment = Dd_segment.Segment
module Runtime = Dd_serve.Runtime
module Loadgen = Dd_serve.Loadgen

let cfg =
  { Types.default_config with
    Types.n_voters = 6; Types.m_options = 2; Types.election_id = "estore" }

(* Shared full-crypto reference setup (the expensive part). *)
let setup = lazy (Ea.setup cfg ~seed:"estore")

let req what = function Some x -> x | None -> Alcotest.failf "%s: None" what

(* A persistent family of in-memory devices, one per segment name —
   the Mem backing outlives every device view handed out. *)
let mem_family () =
  let tbl : (string, Device.Mem.backing) Hashtbl.t = Hashtbl.create 8 in
  let dev name =
    let b =
      match Hashtbl.find_opt tbl name with
      | Some b -> b
      | None ->
        let b = Device.Mem.create () in
        Hashtbl.add tbl name b;
        b
    in
    Device.Mem.device b
  in
  (tbl, dev)

let votes_of l =
  List.map (fun (s, c) -> { Election.vi_serial = s; Election.vi_choice = c }) l

(* --- chunked setup = monolithic setup ---------------------------------- *)

let test_chunked_equals_monolithic () =
  let s = Lazy.force setup in
  let enc = Election_store.encode_bb_ballot in
  let mono = Array.map enc s.Ea.bb_ballots in
  List.iter
    (fun chunk_size ->
       let bb = ref [] and ballots = ref [] in
       let _static =
         Ea.setup_chunks ~chunk_size cfg ~seed:"estore" ~emit:(fun ck ->
             bb := ck.Ea.ck_bb :: !bb;
             ballots := ck.Ea.ck_ballots :: !ballots)
       in
       let bb = Array.concat (List.rev !bb) in
       let ballots = Array.concat (List.rev !ballots) in
       Alcotest.(check (array string))
         (Printf.sprintf "bb ballots, chunk_size %d" chunk_size)
         mono (Array.map enc bb);
       Alcotest.(check (array string))
         (Printf.sprintf "voter ballots, chunk_size %d" chunk_size)
         (Array.map Election_store.encode_voter_ballot s.Ea.ballots)
         (Array.map Election_store.encode_voter_ballot ballots))
    [ 1; 4; 100 ]

(* --- EA output pinned across revisions ---------------------------------- *)

(* Every other test here compares setups with each other; this one pins
   the bytes themselves: one digest per segment of a small full-crypto
   election (its durable log), so a change to any commitment, proof
   first move, VSS share, signature or encoding shows up, and names the
   segment it moved. The digests change only when the EA's output is
   meant to change. *)
let golden_cfg =
  { Types.default_config with
    Types.n_voters = 4; Types.m_options = 3; Types.election_id = "estore-golden" }

let golden_digests =
  [ ("ballots", "eae6dc3d7eb06c1648fa12e786c58720ffcd29e6301048d90550c878dcbec1e2");
    ("bb", "dc797945853d3863ea5fac40cb166e79d2a254af7d7a2c0f490e90c10580db59");
    ("trustee-0", "3c7ca8dcd0e0fe93499c6c02105ce02a813b77aabe1c0a8e7b8fa367838170f4");
    ("trustee-1", "59038c617d84c36ae918b470cc41419e3693f033a9c4b56bcadd2270dce08bf6");
    ("trustee-2", "dce3920183785bd9496ced3e693e000d3b1a3a40c440922e44967841bf68b527");
    ("vc-0", "fa4b33c90eb3e0f6ba6f3cc03da4498f3e86587c418c5f31ef7fca6277cd65f8");
    ("vc-1", "005bb5e8b768dbf0c932fc34cb0199b44021f0ed97f6fbb90209c5878603a41a");
    ("vc-2", "46d4c51a3ce7b047eb904e556124d303539c8916a65b86c9a8e36c133b03ef1d");
    ("vc-3", "47dc97f04aae456f182976194198c3632106adf28cc48cd4eacd43ee6db14c8a") ]

let segment_digests tbl =
  Hashtbl.fold
    (fun name b acc ->
       (name, Dd_crypto.Sha256.hex_of_string (Dd_crypto.Sha256.digest (Device.Mem.durable_log b)))
       :: acc)
    tbl []
  |> List.sort compare

(* both writers: streamed from the EA, and from an in-memory setup *)
let test_segments_golden () =
  let check what tbl =
    Alcotest.(check (list (pair string string))) what golden_digests (segment_digests tbl)
  in
  let tbl, dev = mem_family () in
  let _layout = Election_store.write_setup ~chunk_size:2 dev golden_cfg ~seed:"golden" in
  check "streamed segment digests" tbl;
  let tbl, dev = mem_family () in
  let _layout =
    Election_store.store_setup ~chunk_size:2 dev (Ea.setup golden_cfg ~seed:"golden")
  in
  check "in-memory segment digests" tbl

(* --- the two writers serve the same board -------------------------------- *)

let test_writers_agree () =
  let s = Lazy.force setup in
  let _tbl, dev = mem_family () in
  let streamed = Election_store.write_setup ~chunk_size:2 dev cfg ~seed:"estore" in
  let _tbl, mem_dev = mem_family () in
  let stored = Election_store.store_setup ~chunk_size:2 mem_dev s in
  let board dev layout =
    Board.create (dev Election_store.bb_segment) layout.Election_store.l_bb
  in
  let seg = board dev streamed and mem = board mem_dev stored in
  Alcotest.(check string) "streamed root = in-memory root" (Board.root seg) (Board.root mem);
  let enc = Election_store.encode_bb_ballot in
  for i = 0 to cfg.Types.n_voters - 1 do
    Alcotest.(check string)
      (Printf.sprintf "ballot %d identical through both writers" i)
      (enc (req "streamed ballot" (Board.ballot seg i)))
      (enc (req "in-memory ballot" (Board.ballot mem i)))
  done;
  (* the slice proof of every chunk checks out against the shared root *)
  List.iter
    (fun b ->
       for c = 0 to Board.n_chunks b - 1 do
         let chunk_root, path = req "slice proof" (Board.slice_proof b c) in
         Alcotest.(check bool) (Printf.sprintf "chunk %d proof" c) true
           (Segment.verify_slice ~root:(Board.root seg) ~chunk_root path)
       done)
    [ seg; mem ]

(* --- crash-resume bit-identity ----------------------------------------- *)

let test_resume_bit_identical () =
  let ref_tbl, ref_dev = mem_family () in
  let ref_layout = Election_store.write_setup ~chunk_size:2 ref_dev cfg ~seed:"estore" in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) ref_tbl [] in
  let names = List.sort compare names in
  (* crashed twin: every segment truncated to a different prefix, some
     empty, some torn mid-frame — the shapes a power loss leaves *)
  let _crash_tbl, crash_dev = mem_family () in
  List.iteri
    (fun i name ->
       let log = Device.Mem.durable_log (Hashtbl.find ref_tbl name) in
       let keep = String.length log * (i mod 5) / 5 in
       if keep > 0 then begin
         let d = crash_dev name in
         d.Device.log_append (String.sub log 0 keep);
         d.Device.log_sync ()
       end)
    names;
  let layout = Election_store.resume_setup crash_dev cfg ~seed:"estore" in
  Alcotest.(check string) "same top root"
    ref_layout.Election_store.l_bb.Segment.root
    layout.Election_store.l_bb.Segment.root;
  List.iter
    (fun name ->
       let want = Device.Mem.durable_log (Hashtbl.find ref_tbl name) in
       let got = (crash_dev name).Device.log_contents () in
       Alcotest.(check bool)
         (Printf.sprintf "%s byte-identical after resume" name)
         true (String.equal want got))
    names

(* --- a slice audit reads only its own chunk ----------------------------- *)

let test_slice_audit_ignores_other_chunks () =
  let pcfg = { cfg with Types.n_voters = 40; Types.election_id = "estore-plain" } in
  let b = Device.Mem.create () in
  let m = Election_store.write_plain ~chunk_size:8 (Device.Mem.device b) pcfg ~seed:"plain" in
  let target = 2 in
  (* corrupt the data span of every chunk except the target *)
  let bytes = Bytes.of_string (Device.Mem.durable_log b) in
  Array.iteri
    (fun c pos ->
       if c <> target then
         for i = pos to pos + m.Segment.chunk_len.(c) - 1 do
           Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff))
         done)
    m.Segment.chunk_pos;
  let b2 = Device.Mem.create () in
  let d2 = Device.Mem.device b2 in
  d2.Device.log_append (Bytes.to_string bytes);
  d2.Device.log_sync ();
  (* the intact slice still verifies against the trusted root... *)
  (match Election_store.verify_plain_slice d2 pcfg m ~root:m.Segment.root target with
   | Ok k -> Alcotest.(check int) "records in the intact slice" 8 k
   | Error e -> Alcotest.failf "intact slice must verify: %s" e);
  (* ...every corrupted slice fails... *)
  for c = 0 to Segment.n_chunks m - 1 do
    if c <> target then
      match Election_store.verify_plain_slice d2 pcfg m ~root:m.Segment.root c with
      | Ok _ -> Alcotest.failf "corrupted chunk %d must fail" c
      | Error _ -> ()
  done;
  (* ...and so does the whole-segment audit *)
  match Election_store.verify_plain d2 pcfg m with
  | Ok _ -> Alcotest.fail "whole-segment audit must fail"
  | Error _ -> ()

(* --- a sealed-segment election matches its in-memory twin --------------- *)

let test_stored_election_matches_full () =
  let s = Lazy.force setup in
  let votes = votes_of [ (0, 0); (1, 1); (2, 1); (3, 0); (4, 1); (5, 0) ] in
  let run fidelity =
    let p = Election.default_params ~fidelity cfg ~votes in
    Election.run { p with Election.seed = "stored-run"; concurrent_clients = 3 }
  in
  let r_full = run (Election.Source (Node_source.of_setup s)) in
  let _tbl, dev = mem_family () in
  let layout = Election_store.write_setup ~chunk_size:2 dev cfg ~seed:"estore" in
  let r_stored = run (Election.Source (Node_source.of_layout ~devices:dev layout)) in
  Alcotest.(check int) "same receipts"
    r_full.Election.receipts_ok r_stored.Election.receipts_ok;
  Alcotest.(check (array int)) "same tally"
    (req "full tally" r_full.Election.tally)
    (req "stored tally" r_stored.Election.tally);
  (* the disk-served node's commitment equals the RAM derivation *)
  let stored_bb = List.hd r_stored.Election.bb_nodes in
  let mem = Election_store.store_setup ~chunk_size:2 (snd (mem_family ())) s in
  Alcotest.(check string) "stored board root = in-memory writer's root"
    mem.Election_store.l_bb.Segment.root (Board.root (Bb_node.board stored_bb));
  (* full audit and an independent single-slice audit both pass *)
  let view =
    req "audit view"
      (Auditor.assemble ~cfg r_stored.Election.bb_nodes)
  in
  Alcotest.(check bool) "full audit passes" true
    (Auditor.all_ok (Auditor.audit view));
  for c = 0 to Board.n_chunks (Bb_node.board stored_bb) - 1 do
    Alcotest.(check bool) (Printf.sprintf "slice audit of chunk %d" c) true
      (Auditor.all_ok (Auditor.audit_slice view ~chunk:c))
  done

(* --- one source, however the segments were written ------------------------ *)

(* Serve votes through the runtime, close the election and drive Vote
   Set Consensus to the boards: the cast codes and every BB's final set. *)
let serve_run (src : Node_source.t) votes =
  let t = Runtime.create src in
  let r =
    Loadgen.run
      ~params:{ Loadgen.default_params with Loadgen.lg_clients = 3; lg_seed = "sources" }
      ~conn_for:(fun ~client:_ ~node -> Runtime.client_conn t ~node)
      ~step:(fun () -> Runtime.step t)
      ~ballot_for:src.Node_source.sv_ballot_for ~nv:cfg.Types.nv
      ~votes:(List.map (fun (s, c) -> { Loadgen.serial = s; choice = c }) votes)
      ()
  in
  Runtime.end_election t;
  ignore (Runtime.run_until_idle t : int);
  let final_set j =
    Option.bind (Runtime.bb_node t j) (fun bb -> (Bb_node.published bb).Bb_node.final_set)
  in
  (List.sort compare r.Loadgen.successes, List.init cfg.Types.nb final_set)

let test_setup_and_layout_sources_agree () =
  let mem = Node_source.of_setup (Lazy.force setup) in
  let _tbl, dev = mem_family () in
  let disk =
    Node_source.of_layout ~devices:dev (Election_store.write_setup dev cfg ~seed:"estore")
  in
  Alcotest.(check string) "same node seed"
    mem.Node_source.sv_seed disk.Node_source.sv_seed;
  let root (src : Node_source.t) =
    let _init, board_for = req "boards" src.Node_source.sv_bb in
    Board.root (board_for 0)
  in
  Alcotest.(check string) "same board root" (root mem) (root disk);
  let votes = [ (0, 0); (1, 1); (2, 1); (3, 0); (4, 1); (5, 0) ] in
  let codes_mem, finals_mem = serve_run mem votes in
  let codes_disk, finals_disk = serve_run disk votes in
  Alcotest.(check int) "every vote served" (List.length votes) (List.length codes_mem);
  Alcotest.(check (list (pair int string))) "same cast codes" codes_mem codes_disk;
  Alcotest.(check bool) "every BB has a final set" true
    (List.for_all Option.is_some finals_mem);
  Alcotest.(check (list (option (list (pair int string))))) "same BB final sets"
    finals_mem finals_disk

(* A state dir only loads under the configuration and seed it was
   dealt for: another voter count, seed or collector count gives
   [None], not a cluster that fails mid-run. *)
let test_layout_matches_config_and_seed () =
  let _tbl, dev = mem_family () in
  ignore (Election_store.write_setup dev cfg ~seed:"estore" : Election_store.layout);
  let loads cfg seed = Option.is_some (Election_store.load_layout dev cfg ~seed) in
  Alcotest.(check bool) "right config and seed" true (loads cfg "estore");
  Alcotest.(check bool) "wrong n_voters" false
    (loads { cfg with Types.n_voters = 12 } "estore");
  Alcotest.(check bool) "wrong seed" false (loads cfg "not-the-deploy-seed");
  Alcotest.(check bool) "fewer collectors" false
    (loads { cfg with Types.nv = cfg.Types.nv - 1; Types.fv = 0 } "estore")

(* Loading only reads: probing a layout dealt for four collectors
   under five finds no vc-4 segment, and must not leave an empty one
   behind; nor may a load make a state dir that does not exist. *)
let test_load_writes_nothing () =
  let dir = Filename.temp_file "ddemos-estore" ".d" in
  Sys.remove dir;
  let files name = Dd_store.File_device.create ~dir ~name in
  ignore (Election_store.write_setup files cfg ~seed:"estore" : Election_store.layout);
  let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let before = listing () in
  Alcotest.(check bool) "five collectors: no layout" true
    (Option.is_none
       (Election_store.load_layout files { cfg with Types.nv = 5 } ~seed:"estore"));
  Alcotest.(check (list string)) "state dir unchanged" before (listing ());
  let absent = Filename.concat dir "absent" in
  Alcotest.(check bool) "absent dir: no layout" true
    (Option.is_none
       (Election_store.load_layout
          (fun name -> Dd_store.File_device.create ~dir:absent ~name)
          cfg ~seed:"estore"));
  Alcotest.(check bool) "absent dir not created" false (Sys.file_exists absent)

let () =
  Alcotest.run "election_store"
    [ ( "streaming-setup",
        [ Alcotest.test_case "chunked = monolithic" `Quick test_chunked_equals_monolithic;
          Alcotest.test_case "crash-resume is bit-identical" `Quick test_resume_bit_identical;
          Alcotest.test_case "segments match the golden digest" `Quick test_segments_golden;
          Alcotest.test_case "layout loads only for its config and seed" `Quick
            test_layout_matches_config_and_seed;
          Alcotest.test_case "loading a layout writes nothing" `Quick
            test_load_writes_nothing ] );
      ( "board",
        [ Alcotest.test_case "streamed and in-memory writers agree" `Quick test_writers_agree ] );
      ( "audit",
        [ Alcotest.test_case "slice audit ignores other chunks" `Quick
            test_slice_audit_ignores_other_chunks;
          Alcotest.test_case "stored election matches full" `Quick
            test_stored_election_matches_full;
          Alcotest.test_case "setup and layout sources agree" `Quick
            test_setup_and_layout_sources_agree ] ) ]
