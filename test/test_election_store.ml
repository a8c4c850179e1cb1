(* The streaming election store end to end:
   - chunked Ea.setup_chunks is bit-identical to one chunk of the whole
     election, for every chunk size (the DRBG fork-order discipline);
   - write_setup's segment bytes are pinned by digest, on in-memory
     devices and on File_device alike;
   - write_setup / resume_setup reproduce byte-identical segment files
     after a crash at an arbitrary torn byte;
   - a board slice check needs only its own chunk's bytes: every other
     chunk of the bb segment can be garbage (the independent-auditor
     soundness pin, see docs/INVARIANTS.md);
   - an election served from sealed segments (Node_source.of_layout)
     issues every receipt, publishes the cast votes' tally, and passes
     the full audit plus every slice audit;
   - a ballot with two equal opened codes fails check (a) in the whole
     audit and in its own chunk's slice audit only. *)

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

let cfg =
  { Types.default_config with
    Types.n_voters = 6; Types.m_options = 2; Types.election_id = "estore" }

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

(* The board and printed ballots of every chunk, in serial order. *)
let streamed ?chunk_size () =
  let bb = ref [] and ballots = ref [] in
  let _static =
    Ea.setup_chunks ?chunk_size cfg ~seed:"estore" ~emit:(fun ck ->
        bb := ck.Ea.ck_bb :: !bb;
        ballots := ck.Ea.ck_ballots :: !ballots)
  in
  (Array.concat (List.rev !bb), Array.concat (List.rev !ballots))

let test_chunked_equals_monolithic () =
  let enc = Election_store.encode_bb_ballot in
  (* the default chunk size exceeds the electorate: one chunk *)
  let mono_bb, mono_ballots = streamed () in
  let mono = Array.map enc mono_bb in
  List.iter
    (fun chunk_size ->
       let bb, ballots = streamed ~chunk_size () in
       Alcotest.(check (array string))
         (Printf.sprintf "bb ballots, chunk_size %d" chunk_size)
         mono (Array.map enc bb);
       Alcotest.(check (array string))
         (Printf.sprintf "voter ballots, chunk_size %d" chunk_size)
         (Array.map Election_store.encode_voter_ballot mono_ballots)
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

let test_segments_golden () =
  let check what tbl =
    Alcotest.(check (list (pair string string))) what golden_digests (segment_digests tbl)
  in
  let tbl, dev = mem_family () in
  let _layout = Election_store.write_setup ~chunk_size:2 dev golden_cfg ~seed:"golden" in
  check "streamed segment digests" tbl

(* The same bytes through File_device, the state-dir backing `ddemos
   deploy` writes: one [<segment>.wal] file per segment. *)
let test_file_segments_golden () =
  Test_helpers.with_temp_dir "ddemos-golden" @@ fun dir ->
  let files name = Dd_store.File_device.create ~dir ~name in
  let _layout = Election_store.write_setup ~chunk_size:2 files golden_cfg ~seed:"golden" in
  let wals = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let digests =
    List.map
      (fun file ->
         let path = Filename.concat dir file in
         let log = In_channel.with_open_bin path In_channel.input_all in
         (Filename.chop_suffix file ".wal",
          Dd_crypto.Sha256.hex_of_string (Dd_crypto.Sha256.digest log)))
      wals
  in
  Alcotest.(check (list (pair string string))) "File_device segment digests"
    golden_digests digests

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
  let layout = req "resume" (Election_store.resume_setup crash_dev cfg ~seed:"estore") in
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

(* --- set-up holds one lockstep group ---------------------------------- *)

(* Three groups of ballots at m = 3, the last one short. *)
let group_cfg =
  { Types.default_config with
    Types.n_voters = 14; Types.m_options = 3; Types.election_id = "estore-groups" }

(* Whatever the chunk size, [emit] gets one wave of lockstep groups at a
   time, one group per domain, in serial order. *)
let test_one_group_per_emission () =
  let n = group_cfg.Types.n_voters and per_group = Ea.group_ballots group_cfg in
  Alcotest.(check bool) "more than two groups" true (2 * per_group < n);
  let check ~domains =
    let pool = Dd_parallel.Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Dd_parallel.Pool.shutdown pool) @@ fun () ->
    List.iter
      (fun chunk_size ->
         let next = ref 0 in
         let _static =
           Ea.setup_chunks ~pool ~chunk_size group_cfg ~seed:"groups" ~emit:(fun ck ->
               let k = Array.length ck.Ea.ck_ballots in
               Alcotest.(check int) "in serial order" !next ck.Ea.ck_first;
               if k < 1 || k > domains * per_group then
                 Alcotest.failf "%d domains, chunk_size %d: %d ballots in one emission"
                   domains chunk_size k;
               next := !next + k)
         in
         Alcotest.(check int) "every serial emitted" n !next)
      [ 3; 64; 1024 ]
  in
  check ~domains:1;
  check ~domains:4

exception Power_cut

(* A crash after two groups are appended and before the chunk's trailer,
   with half of every segment's unsynced tail flushed to its file (cut
   mid-frame), resumes to the bytes of an uninterrupted run. The
   devices stand in a page cache in front of File_device: appends wait
   in it until a sync, and the power cut flushes part of it. *)
let test_crash_mid_chunk_resumes () =
  List.iter
    (fun chunk_size ->
       let ref_tbl, ref_dev = mem_family () in
       ignore (Election_store.write_setup ~chunk_size ref_dev group_cfg ~seed:"groups"
               : Election_store.layout);
       Test_helpers.with_temp_dir "ddemos-crash" @@ fun dir ->
       let cut = 2 * Ea.group_ballots group_cfg in
       (* bb's appends: the header, one per record, one trailer per full
          chunk; the power cut comes at record [cut]'s *)
       let cut_append = 1 + cut + (cut / chunk_size) + 1 in
       let caches = ref [] in
       let cached name =
         let file = Dd_store.File_device.create ~dir ~name in
         let cache = Buffer.create 256 and appends = ref 0 in
         caches := (file, cache) :: !caches;
         { file with
           Device.log_append =
             (fun s ->
                incr appends;
                if name = Election_store.bb_segment && !appends = cut_append then
                  raise Power_cut;
                Buffer.add_string cache s);
           log_sync =
             (fun () ->
                file.Device.log_append (Buffer.contents cache);
                Buffer.clear cache;
                file.Device.log_sync ()) }
       in
       let pool = Dd_parallel.Pool.create ~domains:1 () in
       (match
          Election_store.write_setup ~pool ~chunk_size (Device.by_name cached) group_cfg
            ~seed:"groups"
        with
        | _ -> Alcotest.fail "the power cut never came"
        | exception Power_cut -> Dd_parallel.Pool.shutdown pool);
       Alcotest.(check bool) "records waited unsynced" true
         (List.exists (fun (_, cache) -> Buffer.length cache > 0) !caches);
       List.iter
         (fun ((file : Device.t), cache) ->
            file.Device.log_append (Buffer.sub cache 0 (Buffer.length cache / 2));
            file.Device.log_sync ())
         !caches;
       let files name = Dd_store.File_device.create ~dir ~name in
       ignore (req "resume" (Election_store.resume_setup files group_cfg ~seed:"groups")
               : Election_store.layout);
       Hashtbl.iter
         (fun name b ->
            let got =
              In_channel.with_open_bin (Filename.concat dir (name ^ ".wal")) In_channel.input_all
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s, chunk_size %d: uninterrupted bytes" name chunk_size)
              true
              (String.equal (Device.Mem.durable_log b) got))
         ref_tbl)
    [ 10; 64 ]

(* --- a slice audit reads only its own chunk ----------------------------- *)

(* The board's [bb] segment, sealed by write_setup in two-ballot
   chunks, with the data span of every chunk but the middle one
   XOR-flipped: the middle chunk still passes [check_slice] against the
   sealed root and reads the ballots it was sealed with; every other
   chunk fails [s:slice-readable], and streaming the board stops. *)
let test_slice_audit_ignores_other_chunks () =
  let tbl, dev = mem_family () in
  let layout = Election_store.write_setup ~chunk_size:2 dev cfg ~seed:"estore" in
  let m = layout.Election_store.l_bb in
  Alcotest.(check int) "three chunks" 3 (Segment.n_chunks m);
  let target = 1 in
  let bytes =
    Bytes.of_string (Device.Mem.durable_log (Hashtbl.find tbl Election_store.bb_segment))
  in
  Array.iteri
    (fun c pos ->
       if c <> target then
         for i = pos to pos + m.Segment.chunk_len.(c) - 1 do
           Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0xff))
         done)
    m.Segment.chunk_pos;
  let corrupt = Device.Mem.device (Device.Mem.create ()) in
  corrupt.Device.log_append (Bytes.to_string bytes);
  corrupt.Device.log_sync ();
  let board = Board.create corrupt m in
  let verdicts checks = List.map (fun c -> (c.Auditor.name, c.Auditor.ok)) checks in
  (* the intact slice still verifies against the sealed root... *)
  let checks, slice = Auditor.check_slice ~root:m.Segment.root board ~chunk:target in
  Alcotest.(check (list (pair string bool))) "intact slice passes"
    [ ("s:slice-in-root", true); ("s:slice-readable", true) ] (verdicts checks);
  let sealed = Board.create (dev Election_store.bb_segment) m in
  let encoded (first, ballots) = (first, Array.map Election_store.encode_bb_ballot ballots) in
  Alcotest.(check (pair int (array string))) "the sealed ballots"
    (encoded (req "sealed slice" (Board.slice sealed target)))
    (encoded (req "intact slice" slice));
  (* ...every corrupted slice fails... *)
  for c = 0 to Segment.n_chunks m - 1 do
    if c <> target then
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "corrupted chunk %d fails" c)
        [ ("s:slice-in-root", true); ("s:slice-readable", false) ]
        (verdicts (fst (Auditor.check_slice ~root:m.Segment.root board ~chunk:c)))
  done;
  (* ...and so does streaming the whole board *)
  Alcotest.(check bool) "board stream stops" false (Board.iter board ignore)

(* --- an election served from sealed segments ---------------------------- *)

(* an election served from sealed segments of two ballots a chunk *)
let run_stored () =
  let _tbl, dev = mem_family () in
  let layout = Election_store.write_setup ~chunk_size:2 dev cfg ~seed:"estore" in
  let votes = votes_of [ (0, 0); (1, 1); (2, 1); (3, 0); (4, 1); (5, 0) ] in
  let p =
    Election.default_params
      ~fidelity:(Election.Source (Node_source.of_layout ~devices:dev layout)) cfg ~votes
  in
  Election.run { p with Election.seed = "stored-run"; concurrent_clients = 3 }

let test_stored_election_matches_full () =
  let r_stored = run_stored () in
  Alcotest.(check int) "every receipt" cfg.Types.n_voters r_stored.Election.receipts_ok;
  Alcotest.(check (array int)) "tally of the cast votes" [| 3; 3 |]
    (req "stored tally" r_stored.Election.tally);
  let stored_bb = List.hd r_stored.Election.bb_nodes in
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

(* A ballot in chunk 1 opens two equal vote codes: the whole audit and
   that chunk's slice audit both fail check (a), every other slice
   audit passes. *)
let test_slice_audit_catches_duplicate_codes () =
  let r = run_stored () in
  let view = req "audit view" (Auditor.assemble ~cfg r.Election.bb_nodes) in
  let board = view.Auditor.board in
  let target = 1 in
  let serial, _ = req "target chunk" (Board.slice board target) in
  let opened = Hashtbl.copy view.Auditor.opened_codes in
  Hashtbl.replace opened (serial, Types.A, 1)
    (req "opened code" (Hashtbl.find_opt opened (serial, Types.A, 0)));
  let view = { view with Auditor.opened_codes = opened } in
  let distinct checks =
    List.for_all (fun c -> c.Auditor.name <> "a:distinct-vote-codes" || c.Auditor.ok) checks
  in
  Alcotest.(check bool) "whole audit fails (a)" false (distinct (Auditor.audit view));
  Alcotest.(check bool) "target slice fails (a)" false
    (distinct (Auditor.audit_slice view ~chunk:target));
  for c = 0 to Board.n_chunks board - 1 do
    if c <> target then
      Alcotest.(check bool) (Printf.sprintf "slice audit of chunk %d" c) true
        (Auditor.all_ok (Auditor.audit_slice view ~chunk:c))
  done

(* --- opening the codes decodes only the codes ---------------------------- *)

(* A board opens exactly the codes a full decode of its ballots gives. *)
let test_opened_codes_match_full_decode () =
  let r = run_stored () in
  let msk = Ddemos.Ballot_gen.msk ~seed:"estore" in
  let sorted t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []) in
  List.iter
    (fun bb ->
       let full = Hashtbl.create 64 in
       Alcotest.(check bool) "board streams" true
         (Board.iter (Bb_node.board bb) (fun (b : Ea.bb_ballot) ->
              Array.iteri
                (fun p entries ->
                   let part = if p = 0 then Types.A else Types.B in
                   Array.iteri
                     (fun pos (e : Ea.bb_part_entry) ->
                        let iv, ct = e.Ea.enc_code in
                        Hashtbl.replace full (b.Ea.bb_serial, part, pos)
                          (Dd_crypto.Aes128.cbc_decrypt ~key:msk ~iv ct))
                     entries)
                b.Ea.bb_parts));
       Alcotest.(check int) "every code" (2 * cfg.Types.n_voters * cfg.Types.m_options)
         (Hashtbl.length full);
       let opened = req "opened codes" (Bb_node.published bb).Bb_node.opened_codes in
       Alcotest.(check bool) "opened = full decode" true (sorted full = sorted opened))
    r.Election.bb_nodes

(* The codes decoder checks a record's structure but not its points: a
   commitment that is no point fails the full decode only. *)
let test_codes_decoder () =
  let w = Dd_codec.Wire.writer () in
  Dd_codec.Wire.put_varint w 7;
  Dd_codec.Wire.put_varint w 1;
  Dd_codec.Wire.put_varint w 1;
  List.iter (Dd_codec.Wire.put_bytes w) [ "iv"; "ct" ];
  Dd_codec.Wire.put_varint w 1;
  List.iter (Dd_codec.Wire.put_bytes w) [ "not a point"; "no first move" ];
  let record = Dd_codec.Wire.contents w in
  Alcotest.(check bool) "full decode fails" true
    (Option.is_none (Election_store.decode_bb_ballot record));
  Alcotest.(check bool) "codes decode" true
    (Election_store.decode_bb_codes record = Some (7, [| [| ("iv", "ct") |] |]));
  Alcotest.(check bool) "trailing byte fails" true
    (Option.is_none (Election_store.decode_bb_codes (record ^ "\x00")));
  Alcotest.(check bool) "cut record fails" true
    (Option.is_none
       (Election_store.decode_bb_codes (String.sub record 0 (String.length record - 1))))

(* A chunk past the board's end fails [s:slice-proof] and says why;
   the last chunk passes every [s:] check and reads. These are the
   checks `ddemos deploy --audit-slice` prints. *)
let test_slice_check_out_of_range () =
  let _tbl, dev = mem_family () in
  let layout = Election_store.write_setup ~chunk_size:2 dev cfg ~seed:"estore" in
  let board = Board.create (dev Election_store.bb_segment) layout.Election_store.l_bb in
  let last = Board.n_chunks board - 1 in
  let summary = List.map (fun c -> (c.Auditor.name, c.Auditor.ok, c.Auditor.detail)) in
  let checks, slice = Auditor.check_slice board ~chunk:(last + 1) in
  Alcotest.(check (list (triple string bool string))) "out of range, with the reason"
    [ ("s:slice-proof", false, Printf.sprintf "chunk %d out of range" (last + 1)) ]
    (summary checks);
  Alcotest.(check bool) "nothing read" true (slice = None);
  let checks, slice = Auditor.check_slice board ~chunk:last in
  Alcotest.(check (list string)) "last chunk's checks"
    [ "s:slice-in-root"; "s:slice-readable" ]
    (List.map (fun c -> c.Auditor.name) checks);
  Alcotest.(check bool) "last chunk passes" true (Auditor.all_ok checks);
  Alcotest.(check bool) "last chunk reads" true (Option.is_some slice)

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

(* Resuming a sealed state dir is a reload, and it obeys [load_layout]:
   a 6-voter layout dealt under one seed is refused under another seed
   and under n = 8, and neither probe writes a byte. *)
let test_resume_refuses_other_layout () =
  let tbl, dev = mem_family () in
  ignore (Election_store.write_setup dev cfg ~seed:"estore" : Election_store.layout);
  let bytes () =
    List.sort compare
      (Hashtbl.fold (fun name b acc -> (name, Device.Mem.durable_log b) :: acc) tbl [])
  in
  let before = bytes () in
  let resumes cfg seed = Option.is_some (Election_store.resume_setup dev cfg ~seed) in
  Alcotest.(check bool) "another seed refused" false (resumes cfg "not-the-deploy-seed");
  Alcotest.(check bool) "n = 8 refused" false
    (resumes { cfg with Types.n_voters = 8 } "estore");
  Alcotest.(check bool) "devices unchanged" true (before = bytes ());
  Alcotest.(check bool) "its own config and seed reload" true (resumes cfg "estore")

(* A crashed set-up resumed under another seed is refused before a
   byte moves: with every segment of a two-ballot-chunk layout cut to
   60 % (chunk 0 durable in every one, a torn tail after it), the EA
   tags of serial 0 in vc-0 and trustee-0 fail under the other seed's
   static, so nothing is truncated, appended or sealed; the right seed
   then resumes to the uninterrupted run's bytes. *)
let test_resume_refuses_other_seed_mid_setup () =
  let ref_tbl, ref_dev = mem_family () in
  ignore (Election_store.write_setup ~chunk_size:2 ref_dev cfg ~seed:"estore" : Election_store.layout);
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) ref_tbl []) in
  let tbl, dev = mem_family () in
  List.iter
    (fun name ->
       let log = Device.Mem.durable_log (Hashtbl.find ref_tbl name) in
       let d = dev name in
       d.Device.log_append (String.sub log 0 (String.length log * 3 / 5));
       d.Device.log_sync ())
    names;
  let bytes () =
    List.map (fun name -> (name, Device.Mem.durable_log (Hashtbl.find tbl name))) names
  in
  let before = bytes () in
  Alcotest.(check bool) "another seed refused" true
    (Option.is_none (Election_store.resume_setup dev cfg ~seed:"another-seed"));
  List.iter2
    (fun (name, want) (_, got) ->
       Alcotest.(check bool) (name ^ " unchanged") true (String.equal want got))
    before (bytes ());
  ignore (req "resume" (Election_store.resume_setup dev cfg ~seed:"estore"));
  List.iter
    (fun name ->
       Alcotest.(check bool) (name ^ " = uninterrupted run") true
         (String.equal (Device.Mem.durable_log (Hashtbl.find ref_tbl name))
            (Device.Mem.durable_log (Hashtbl.find tbl name))))
    names

(* Loading only reads: probing a layout dealt for four collectors
   under five finds no vc-4 segment, and must not leave an empty one
   behind; nor may a load make a state dir that does not exist. *)
let test_load_writes_nothing () =
  Test_helpers.with_temp_dir "ddemos-estore" @@ fun dir ->
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
          Alcotest.test_case "File_device segments match the golden digest" `Quick
            test_file_segments_golden;
          Alcotest.test_case "layout loads only for its config and seed" `Quick
            test_layout_matches_config_and_seed;
          Alcotest.test_case "loading a layout writes nothing" `Quick
            test_load_writes_nothing;
          Alcotest.test_case "resume refuses another seed or size" `Quick
            test_resume_refuses_other_layout;
          Alcotest.test_case "resume refuses another seed mid-setup" `Quick
            test_resume_refuses_other_seed_mid_setup;
          Alcotest.test_case "one group per emission" `Quick test_one_group_per_emission;
          Alcotest.test_case "crash mid-chunk resumes on File_device" `Quick
            test_crash_mid_chunk_resumes ] );
      ( "audit",
        [ Alcotest.test_case "slice audit ignores other chunks" `Quick
            test_slice_audit_ignores_other_chunks;
          Alcotest.test_case "stored election matches full" `Quick
            test_stored_election_matches_full;
          Alcotest.test_case "slice audit catches duplicate codes" `Quick
            test_slice_audit_catches_duplicate_codes;
          Alcotest.test_case "slice check names an out-of-range chunk" `Quick
            test_slice_check_out_of_range;
          Alcotest.test_case "opened codes = full decode" `Quick
            test_opened_codes_match_full_decode;
          Alcotest.test_case "codes decoder skips points" `Quick test_codes_decoder ] ) ]
