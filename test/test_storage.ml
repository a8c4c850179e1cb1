(* Durable-storage tests: WAL framing under truncation and bit-flips,
   the journal's torn-tail crash semantics over the in-memory device,
   the real file backend, and recovery equivalence for the three
   durable node types — a cold-restarted node must be observably
   identical to the node it replaces. The Wal and recovery properties
   carry [~long_factor:100] for the nightly QCHECK_LONG=1 run. *)

module Device = Dd_store.Device
module Mem = Dd_store.Device.Mem
module Wal = Dd_store.Wal
module File_device = Dd_store.File_device
module Types = Ddemos.Types
module Vc_node = Ddemos.Vc_node
module Bb_node = Ddemos.Bb_node
module Trustee = Ddemos.Trustee
module Bb_reader = Ddemos.Bb_reader
module Messages = Ddemos.Messages
module Auth = Ddemos.Auth
module Ballot_store = Ddemos.Ballot_store
module Ballot_gen = Ddemos.Ballot_gen
module Node_source = Ddemos.Node_source
module Drbg = Dd_crypto.Drbg

(* A VOTE_SET_SUBMIT, handled as the wire delivers it. *)
let submit bb ~sender ~set ~msk_share =
  Bb_node.handle bb (Messages.Vote_set_submit { sender; set; msk_share })

(* --- WAL framing --------------------------------------------------------- *)

let concat_frames payloads = String.concat "" (List.map Wal.frame payloads)

let is_prefix_of scanned payloads =
  List.length scanned <= List.length payloads
  && List.for_all2 String.equal scanned
       (List.filteri (fun i _ -> i < List.length scanned) payloads)

let test_wal_roundtrip () =
  let payloads = [ ""; "a"; String.make 300 'x'; "\x00\xff\x80bin" ] in
  let log = concat_frames payloads in
  let scanned, stopped = Wal.scan log in
  Alcotest.(check (list string)) "all records back" payloads scanned;
  Alcotest.(check int) "scanned to the end" (String.length log) stopped

let payloads_gen =
  QCheck.(list_of_size (Gen.int_range 1 8) (string_of_size (Gen.int_range 0 40)))

let prop_truncation =
  QCheck.Test.make ~name:"truncated log replays a clean prefix" ~count:500 ~long_factor:100
    QCheck.(pair payloads_gen (int_range 0 100_000))
    (fun (payloads, cut_raw) ->
       let log = concat_frames payloads in
       let cut = cut_raw mod (String.length log + 1) in
       let scanned, stopped = Wal.scan (String.sub log 0 cut) in
       stopped <= cut && is_prefix_of scanned payloads)

let prop_bitflip =
  QCheck.Test.make ~name:"bit-flipped record dies, never resurrects" ~count:500 ~long_factor:100
    QCheck.(pair payloads_gen (int_range 0 1_000_000))
    (fun (payloads, r) ->
       let log = Bytes.of_string (concat_frames payloads) in
       let bit = r mod (8 * Bytes.length log) in
       let i = bit / 8 in
       Bytes.set log i
         (Char.chr (Char.code (Bytes.get log i) lxor (1 lsl (bit mod 8))));
       let scanned, _ = Wal.scan (Bytes.to_string log) in
       (* the flipped frame fails its checksum: replay stops at a strict
          clean prefix (modulo a 2^-32 crc collision) *)
       is_prefix_of scanned payloads
       && List.length scanned < List.length payloads)

let prop_garbage_total =
  QCheck.Test.make ~name:"scan is total on arbitrary bytes" ~count:1000 ~long_factor:100
    QCheck.(string_of_size (Gen.int_range 0 80))
    (fun s ->
       let scanned, stopped = Wal.scan s in
       stopped <= String.length s && List.length scanned * 5 <= String.length s)

(* A length field near [max_int] with a zero checksum field: the bound
   check must not overflow into accepting the frame. *)
let test_wal_huge_length () =
  let w = Dd_codec.Wire.writer () in
  Dd_codec.Wire.put_varint w (max_int - 3);
  let log = "\x00\x00\x00\x00" ^ Dd_codec.Wire.contents w in
  Alcotest.(check (pair (list string) int)) "nothing replayed" ([], 0) (Wal.scan log)

(* The framing [Wal.frame] replaced, built through growing buffers: a
   length-prefixed body, then the checksum before it. *)
let reference_frame payload =
  let body = Dd_codec.Wire.writer () in
  Dd_codec.Wire.put_bytes body payload;
  let body = Dd_codec.Wire.contents body in
  let crc = Dd_codec.Crc32.string body in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int crc);
  Bytes.to_string b ^ body

let prop_frame_bytes =
  QCheck.Test.make ~name:"single-allocation frame = reference bytes" ~count:500 ~long_factor:100
    QCheck.(pair (string_of_size (Gen.int_range 0 12)) (string_of_size (Gen.int_range 0 400)))
    (fun (head, payload) ->
       String.equal (Wal.frame payload) (reference_frame payload)
       && String.equal (Wal.frame ~head payload) (reference_frame (head ^ payload)))

(* --- the journal over the in-memory device ------------------------------- *)

let test_store_log_read () =
  let d = Mem.device (Mem.create ()) in
  let recs = List.init 10 (Printf.sprintf "rec-%d") in
  List.iter (Wal.log d) recs;
  Alcotest.(check (list string)) "records in order" recs (Wal.open_log d)

let test_store_torn_tail () =
  let synced = [ "one"; "two" ] and unsynced = [ "three"; "four" ] in
  let mk () =
    let b = Mem.create () in
    List.iter (Wal.log (Mem.device b)) synced;
    List.iter (Wal.log ~sync:false (Mem.device b)) unsynced;
    b
  in
  let tail = String.length (Mem.unsynced_log (mk ())) in
  Alcotest.(check bool) "unsynced tail pending" true (tail > 0);
  for keep = 0 to tail do
    let b = mk () in
    Mem.crash ~keep b;
    let records = Wal.open_log (Mem.device b) in
    let n = List.length records in
    (* the synced prefix always survives; of the torn tail only whole
       clean frames replay, in order — a cut record never resurrects *)
    if n < List.length synced then
      Alcotest.failf "keep=%d lost a synced record" keep;
    Alcotest.(check (list string))
      (Printf.sprintf "keep=%d clean prefix" keep)
      (List.filteri (fun i _ -> i < n) (synced @ unsynced))
      records
  done

(* Reopening cuts the torn tail, so records logged after the restart
   follow the replayed ones: left in place, the torn bytes would end
   the next scan and lose every later record, synced or not. *)
let test_store_torn_restart () =
  let b = Mem.create () in
  let d = Mem.device b in
  Wal.log d "a";
  Wal.log d "b";
  Wal.log ~sync:false d "123456789";
  Mem.crash ~keep:(String.length (Mem.unsynced_log b) / 2) b;
  Alcotest.(check (list string)) "first restart" [ "a"; "b" ] (Wal.open_log d);
  Wal.log d "c";
  Wal.log d "d";
  Mem.crash b;
  Alcotest.(check (list string)) "second restart" [ "a"; "b"; "c"; "d" ] (Wal.open_log d)

(* --- file backend --------------------------------------------------------- *)

let test_file_device_roundtrip () =
  Test_helpers.with_temp_dir "ddemos-store" @@ fun dir ->
  let d = File_device.create ~dir ~name:"node" in
  String.iter (fun ch -> Wal.log d (String.make 1 ch)) "abcdefghij";
  let history d = String.concat "" (Wal.open_log d) in
  (* a separate open of the same dir/name sees the identical state *)
  Alcotest.(check string) "file-backed history" "abcdefghij"
    (history (File_device.create ~dir ~name:"node"));
  (* a torn tail on disk (partial frame) replays to the clean prefix,
     and is cut so that a record logged after it replays too *)
  let d = File_device.create ~dir ~name:"node" in
  d.Device.log_append "\x01\x02\x03";
  d.Device.log_sync ();
  let d = File_device.create ~dir ~name:"node" in
  Alcotest.(check string) "torn file tail dropped" "abcdefghij" (history d);
  Wal.log d "k";
  Alcotest.(check string) "logged after the cut" "abcdefghijk"
    (history (File_device.create ~dir ~name:"node"))

(* by_name makes each name's device once; every later use shares it *)
let test_one_device_per_name () =
  let made = ref [] in
  let devices = Device.by_name (fun name -> made := name :: !made; Mem.device (Mem.create ())) in
  (devices "a").Device.log_append "x";
  (devices "a").Device.log_sync ();
  Alcotest.(check int) "a later use sees the first one's log" 1 ((devices "a").Device.log_size ());
  Alcotest.(check int) "names stay apart" 0 ((devices "b").Device.log_size ());
  Alcotest.(check (list string)) "one device per name" [ "b"; "a" ] !made

(* One device reads through one channel: windows after an append see
   the new bytes, and after a reset only the new log. *)
let test_file_device_reads () =
  Test_helpers.with_temp_dir "ddemos-store" @@ fun dir ->
  let d = File_device.create ~dir ~name:"node" in
  let window pos len = d.Device.log_read ~pos ~len in
  d.Device.log_append "0123456789";
  d.Device.log_sync ();
  Alcotest.(check string) "window" "2345" (window 2 4);
  d.Device.log_append "abcdef";
  d.Device.log_sync ();
  Alcotest.(check int) "size after append" 16 (d.Device.log_size ());
  Alcotest.(check string) "window over the append" "89abc" (window 8 5);
  Alcotest.(check string) "clamped at the end" "ef" (window 14 10);
  d.Device.log_reset "xyz";
  Alcotest.(check int) "size after reset" 3 (d.Device.log_size ());
  Alcotest.(check string) "window after reset" "yz" (window 1 10);
  Alcotest.(check string) "contents after reset" "xyz" (d.Device.log_contents ());
  d.Device.log_append "!";
  d.Device.log_sync ();
  Alcotest.(check string) "append after reset" "xyz!" (d.Device.log_contents ())

(* --- VC node: journal-replay equivalence ---------------------------------- *)

let vc_cfg = { Types.default_config with Types.n_voters = 6; Types.m_options = 3 }
let gctx = Dd_group.Group_ctx.default ()
let vc_seed = "storage-vc"

type cluster = {
  cfg : Types.config;
  mutable nodes : Vc_node.t array;
  mutable queue : (unit -> unit) list;
  mutable now : float;
  mutable t_end : float;
  backings : Mem.backing option array;
  keys : Auth.keys array;
  (* per node, the (serial, code) pairs it sent an ENDORSEMENT for *)
  endorsed : (int * string) list array;
  (* bytes handed to the durable devices: appends and log resets *)
  mutable written : int;
}

(* every byte a node hands its device, whatever the call *)
let counting c (d : Device.t) =
  { d with
    Device.log_append =
      (fun s ->
         c.written <- c.written + String.length s;
         d.Device.log_append s);
    log_reset =
      (fun s ->
         c.written <- c.written + String.length s;
         d.Device.log_reset s) }

(* The code an ENDORSEMENT from [signer] to [dst] signs: the line of
   ballot [serial] whose endorsement body its tag verifies on. *)
let endorsed_code c ~signer ~dst ~serial tag =
  let ballot = Ballot_gen.voter_ballot ~seed:vc_seed ~serial ~m:c.cfg.Types.m_options in
  let signs code =
    Auth.verify c.keys.(dst) ~signer
      (Messages.endorsement_body ~election_id:c.cfg.Types.election_id ~serial ~code)
      tag
  in
  List.find_map
    (fun part ->
       Array.find_map
         (fun line -> if signs line.Types.vote_code then Some line.Types.vote_code else None)
         (Types.ballot_part ballot part).Types.lines)
    [ Types.A; Types.B ]

let vc_env c i =
  { Vc_node.me = i;
    cfg = c.cfg;
    keys = c.keys.(i);
    store = Ballot_store.virtual_prf ~seed:vc_seed ~cfg:c.cfg ~node:i;
    now = (fun () -> c.now);
    election_end = (fun () -> c.t_end);
    send_vc =
      (fun ~dst msg ->
         (match msg with
          | Messages.Endorsement { serial; tag; _ } ->
            Option.iter
              (fun code -> c.endorsed.(i) <- (serial, code) :: c.endorsed.(i))
              (endorsed_code c ~signer:i ~dst ~serial tag)
          | _ -> ());
         c.queue <- c.queue @ [ (fun () -> Vc_node.handle c.nodes.(dst) msg) ]);
    reply = (fun ~client:_ ~req:_ _ -> ());
    send_bb = (fun ~dst:_ _ -> ());
    rng = Drbg.create ~seed:(Printf.sprintf "rng|%s|%d" vc_seed i);
    consensus_coin = Dd_consensus.Binary_batch.Local;
    verify_tag = None;
    durable = Option.map (fun b -> counting c (Mem.device b)) c.backings.(i) }

let make_cluster ?(cfg = vc_cfg) ~durable () =
  let keys =
    Auth.deal_clique ~scheme:Auth.Mac_scheme ~seed:("k" ^ vc_seed)
      ~n:(cfg.Types.nv + 1)
  in
  let backings =
    Array.init cfg.Types.nv (fun _ -> if durable then Some (Mem.create ()) else None)
  in
  let c =
    { cfg; nodes = [||]; queue = []; now = 1.0; t_end = 100.; backings; keys;
      endorsed = Array.make cfg.Types.nv []; written = 0 }
  in
  c.nodes <- Array.init cfg.Types.nv (fun i -> Vc_node.create (vc_env c i));
  c

let drain_n c n =
  let steps = ref 0 in
  while c.queue <> [] && !steps < n do
    incr steps;
    match c.queue with
    | [] -> ()
    | f :: rest ->
      c.queue <- rest;
      f ()
  done

let drain c = drain_n c 100_000

let vote_code c ~serial ~part ~opt =
  let ballot = Ballot_gen.voter_ballot ~seed:vc_seed ~serial ~m:c.cfg.Types.m_options in
  (Types.ballot_part ballot part).Types.lines.(opt).Types.vote_code

let cast ?(steps = 100_000) c ~serial ~part ~opt ~node ~client =
  let vote_code = vote_code c ~serial ~part ~opt in
  Vc_node.handle c.nodes.(node) (Messages.Vote { serial; vote_code; client; req = client });
  drain_n c steps

(* Drive the cluster to a random protocol phase: random votes, then
   either one more vote with only part of its traffic delivered (codes
   endorsed but not yet receipted), or election end, announcements, and
   a partial or complete run of Vote Set Consensus (a partial drain
   leaves nodes mid-consensus). *)
let drive c rng =
  let random_vote ?steps k =
    let serial = Drbg.int rng vc_cfg.Types.n_voters in
    let part = if Drbg.int rng 2 = 0 then Types.A else Types.B in
    let opt = Drbg.int rng vc_cfg.Types.m_options in
    let node = Drbg.int rng vc_cfg.Types.nv in
    cast ?steps c ~serial ~part ~opt ~node ~client:k
  in
  let votes = 1 + Drbg.int rng 6 in
  for k = 0 to votes - 1 do
    random_vote k
  done;
  match Drbg.int rng 3 with
  | 0 -> random_vote ~steps:(Drbg.int rng 12) votes   (* mid-vote *)
  | 1 ->
    (* mid-consensus: deliver only a bounded slice of the VSC traffic *)
    c.now <- c.t_end +. 1.;
    Array.iter Vc_node.start_vote_set_consensus c.nodes;
    drain_n c (Drbg.int rng 60)
  | _ ->
    c.now <- c.t_end +. 1.;
    Array.iter Vc_node.start_vote_set_consensus c.nodes;
    drain c

(* Cold-restart node [i] with its sends captured rather than delivered. *)
let recover_captured c i =
  let sent = ref [] in
  let env = { (vc_env c i) with Vc_node.send_vc = (fun ~dst:_ msg -> sent := msg :: !sent) } in
  (Vc_node.create env, sent)

(* The recovered node must remember every code it endorsed: asked, with
   its clock back inside voting hours, to endorse any other valid code
   of such a ballot, it signs nothing (Section III-D's UCERT uniqueness
   across a crash). *)
let signs_no_second_code c i (node, sent) =
  let now = c.now in
  c.now <- 1.0;
  let lines =
    List.concat_map
      (fun part -> List.init c.cfg.Types.m_options (fun opt -> (part, opt)))
      [ Types.A; Types.B ]
  in
  let ok =
    List.for_all
      (fun (serial, code) ->
         List.for_all
           (fun (part, opt) ->
              let other = vote_code c ~serial ~part ~opt in
              String.equal other code
              || begin
                sent := [];
                Vc_node.handle node
                  (Messages.Endorse
                     { serial; vote_code = other; responder = (i + 1) mod c.cfg.Types.nv });
                not
                  (List.exists
                     (function Messages.Endorsement _ -> true | _ -> false)
                     !sent)
              end)
           lines)
      c.endorsed.(i)
  in
  c.now <- now;
  ok

let prop_vc_wal_replay =
  QCheck.Test.make ~name:"Vc_node: cold restart from WAL = live node" ~count:15
    ~long_factor:100
    QCheck.(int_range 0 1_000_000)
    (fun n ->
       let c = make_cluster ~durable:true () in
       drive c (Drbg.create ~seed:(Printf.sprintf "wal|%d" n));
       Array.iteri
         (fun i node ->
            (* recovery reproduces the state as of the last durability
               barrier, so barrier first (async announce records may
               still sit in the volatile tail) *)
            (match c.backings.(i) with
             | Some b -> (Mem.device b).Device.log_sync ()
             | None -> ());
            let recovered = recover_captured c i in
            if
              not
                (String.equal (Vc_node.observable node)
                   (Vc_node.observable (fst recovered)))
            then QCheck.Test.fail_reportf "node %d diverged after WAL replay" i;
            if not (signs_no_second_code c i recovered) then
              QCheck.Test.fail_reportf "node %d endorsed a second code after restart" i)
         c.nodes;
       true)

(* a torn WAL tail never crashes recovery and never resurrects the cut
   record: the recovered node equals some sync-consistent prefix state *)
let prop_vc_torn_wal_total =
  QCheck.Test.make ~name:"Vc_node: recovery total under torn WAL" ~count:15
    ~long_factor:100
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (n, keep_raw) ->
       let c = make_cluster ~durable:true () in
       drive c (Drbg.create ~seed:(Printf.sprintf "torn|%d" n));
       Array.iteri
         (fun i _ ->
            match c.backings.(i) with
            | None -> ()
            | Some b ->
              let tail = String.length (Mem.unsynced_log b) in
              Mem.crash ~keep:(keep_raw mod (tail + 1)) b;
              ignore (Vc_node.create (vc_env c i)))
         c.nodes;
       true)

(* A collector's journal grows with the records it logs, nothing more:
   four times the votes, about four times the bytes. *)
let test_vc_write_volume () =
  let written votes =
    let c =
      make_cluster ~cfg:{ vc_cfg with Types.n_voters = 400 } ~durable:true ()
    in
    for serial = 0 to votes - 1 do
      cast c ~serial ~part:Types.A ~opt:(serial mod vc_cfg.Types.m_options)
        ~node:(serial mod vc_cfg.Types.nv) ~client:serial
    done;
    c.written
  in
  let small = written 100 and large = written 400 in
  if float_of_int large >= 5. *. float_of_int small then
    Alcotest.failf "100 votes wrote %d bytes, 400 votes %d (%.1fx)" small large
      (float_of_int large /. float_of_int small)

(* --- BB node and trustee: journal replay equivalence --------------------- *)

let bb_cfg = { Types.default_config with Types.n_voters = 3; Types.m_options = 2 }
let bb_seed = "storage-bb"
(* BB init and boards, trustee inits and voters' ballots from the node
   source, as in every full-crypto run *)
let bb_election = lazy (Node_source.in_memory bb_cfg ~seed:bb_seed)
let bb_source = lazy (Option.get (Lazy.force bb_election).Node_source.sv_bb)
let bb_trustees = lazy (Option.get (Lazy.force bb_election).Node_source.sv_trustees)

let bb_create ?durable i =
  let init, board_for = Lazy.force bb_source in
  Bb_node.create ?durable ~board:(board_for i) ~cfg:bb_cfg ~init ~me:i ()

let bb_code ~serial ~part ~option =
  let ballot = (Lazy.force bb_election).Node_source.sv_ballot_for serial in
  (Types.ballot_part ballot part).Types.lines.(option).Types.vote_code

let bb_set () =
  [ (0, bb_code ~serial:0 ~part:Types.A ~option:1);
    (2, bb_code ~serial:2 ~part:Types.B ~option:0) ]

let msk_shares () =
  Ballot_gen.msk_shares ~seed:bb_seed ~threshold:(bb_cfg.Types.nv - bb_cfg.Types.fv)
    ~shares:bb_cfg.Types.nv

let prop_bb_journal_replay =
  QCheck.Test.make ~name:"Bb_node: journal replay = live board" ~count:10
    ~long_factor:100
    QCheck.(int_range 0 1_000_000)
    (fun n ->
       let rng = Drbg.create ~seed:(Printf.sprintf "bb|%d" n) in
       let b = Mem.create () in
       let bb = bb_create ~durable:(Mem.device b) 0 in
       let shares = msk_shares () in
       (* a random subset of senders in a random order, with duplicates *)
       let k = Drbg.int rng (bb_cfg.Types.nv + 2) in
       for _ = 1 to k do
         let sender = Drbg.int rng bb_cfg.Types.nv in
         submit bb ~sender ~set:(bb_set ())
           ~msk_share:shares.(sender)
       done;
       let bb' = bb_create ~durable:(Mem.device b) 0 in
       String.equal (Bb_node.observable bb) (Bb_node.observable bb'))

let test_full_pipeline_recovery () =
  let keys, init_for = Lazy.force bb_trustees in
  let shares = msk_shares () in
  let bb_backings = Array.init bb_cfg.Types.nb (fun _ -> Mem.create ()) in
  let bbs =
    List.init bb_cfg.Types.nb (fun i ->
        bb_create ~durable:(Mem.device bb_backings.(i)) i)
  in
  List.iter
    (fun bb ->
       for sender = 0 to bb_cfg.Types.nv - 1 do
         submit bb ~sender ~set:(bb_set ()) ~msk_share:shares.(sender)
       done)
    bbs;
  (* trustee phase over direct wiring, every trustee journaling *)
  let t_backings = Array.init bb_cfg.Types.nt (fun _ -> Mem.create ()) in
  let queue = ref [] in
  let t_env i =
    { Trustee.me = i; cfg = bb_cfg; gctx;
      init = init_for i;
      keys = keys.(i);
      send_trustee = (fun ~dst ex -> queue := (dst, ex) :: !queue);
      post_bb =
        (fun payload ->
           List.iter (fun bb -> Bb_node.on_trustee_post bb ~trustee:i payload) bbs);
      durable = Some (Mem.device t_backings.(i)) }
  in
  let trustees = Array.init bb_cfg.Types.nt (fun i -> Trustee.create (t_env i)) in
  (match Bb_reader.voted_positions ~cfg:bb_cfg bbs with
   | Bb_reader.Agreed voted ->
     Array.iter (fun t -> Trustee.on_election_data t ~voted) trustees
   | Bb_reader.No_majority -> Alcotest.fail "no majority voted view");
  List.iter
    (fun (dst, ex) -> Trustee.on_exchange trustees.(dst) ex)
    (List.rev !queue);
  (match Bb_reader.tally ~cfg:bb_cfg bbs with
   | Bb_reader.Agreed _ -> ()
   | Bb_reader.No_majority -> Alcotest.fail "pipeline produced no tally");
  (* every board cold-restarts to an observably identical board *)
  List.iteri
    (fun i bb ->
       let bb' = bb_create ~durable:(Mem.device bb_backings.(i)) i in
       Alcotest.(check string)
         (Printf.sprintf "bb %d observable" i)
         (Bb_node.observable bb) (Bb_node.observable bb'))
    bbs;
  (* every trustee likewise; its replay re-posts to the live boards,
     which must dedupe them without changing state *)
  let before = List.map Bb_node.observable bbs in
  Array.iteri
    (fun i t ->
       let t' = Trustee.create (t_env i) in
       Alcotest.(check string)
         (Printf.sprintf "trustee %d observable" i)
         (Trustee.observable t) (Trustee.observable t'))
    trustees;
  Alcotest.(check (list string)) "boards unchanged by replayed posts" before
    (List.map Bb_node.observable bbs)

(* One constructor for every node kind: [create] on a device that
   already holds a journal opens the node that wrote it, not a blank
   one appending behind the old records. *)
let test_create_reopens_journal () =
  let same kind i live reopened =
    Alcotest.(check string) (Printf.sprintf "%s %d observable" kind i) live reopened
  in
  (* collectors: votes, then a whole Vote Set Consensus *)
  let c = make_cluster ~durable:true () in
  for serial = 0 to 3 do
    cast c ~serial ~part:Types.A ~opt:(serial mod vc_cfg.Types.m_options)
      ~node:(serial mod vc_cfg.Types.nv) ~client:serial
  done;
  c.now <- c.t_end +. 1.;
  Array.iter Vc_node.start_vote_set_consensus c.nodes;
  drain c;
  Array.iteri
    (fun i node ->
       if Vc_node.phase node <> Vc_node.Submitted then
         Alcotest.failf "vc %d did not submit" i;
       same "vc" i (Vc_node.observable node)
         (Vc_node.observable (fst (recover_captured c i))))
    c.nodes;
  (* a board that accepted every collector's submission *)
  let b = Mem.create () in
  let bb = bb_create ~durable:(Mem.device b) 0 in
  let shares = msk_shares () in
  for sender = 0 to bb_cfg.Types.nv - 1 do
    submit bb ~sender ~set:(bb_set ()) ~msk_share:shares.(sender)
  done;
  same "bb" 0 (Bb_node.observable bb)
    (Bb_node.observable (bb_create ~durable:(Mem.device b) 0));
  (* trustees that took the election data and each other's exchanges *)
  let keys, init_for = Lazy.force bb_trustees in
  let backings = Array.init bb_cfg.Types.nt (fun _ -> Mem.create ()) in
  let queue = Queue.create () in
  let t_env i =
    { Trustee.me = i; cfg = bb_cfg; gctx;
      init = init_for i;
      keys = keys.(i);
      send_trustee = (fun ~dst ex -> Queue.add (dst, ex) queue);
      post_bb = (fun _ -> ());
      durable = Some (Mem.device backings.(i)) }
  in
  let trustees = Array.init bb_cfg.Types.nt (fun i -> Trustee.create (t_env i)) in
  let voted = [ (0, (Types.A, 1)); (2, (Types.B, 0)) ] in
  Array.iter (fun t -> Trustee.on_election_data t ~voted) trustees;
  Queue.iter (fun (dst, ex) -> Trustee.on_exchange trustees.(dst) ex) queue;
  Array.iteri
    (fun i t -> same "trustee" i (Trustee.observable t) (Trustee.observable (Trustee.create (t_env i))))
    trustees

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "storage"
    [ ("wal",
       Alcotest.test_case "frame/scan roundtrip" `Quick test_wal_roundtrip
       :: Alcotest.test_case "length near max_int" `Quick test_wal_huge_length
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_truncation; prop_bitflip; prop_garbage_total; prop_frame_bytes ]);
      ("store",
       [ Alcotest.test_case "log and read back" `Quick test_store_log_read;
         Alcotest.test_case "torn tail at every cut" `Quick test_store_torn_tail;
         Alcotest.test_case "torn-tail restart keeps later records" `Quick
           test_store_torn_restart;
         Alcotest.test_case "file backend roundtrip" `Quick test_file_device_roundtrip;
         Alcotest.test_case "file backend reads" `Quick test_file_device_reads;
         Alcotest.test_case "one device per name" `Quick test_one_device_per_name ]);
      ("vc-recovery",
       Alcotest.test_case "write volume linear in votes" `Quick test_vc_write_volume
       :: List.map QCheck_alcotest.to_alcotest [ prop_vc_wal_replay; prop_vc_torn_wal_total ]);
      ("bb-trustee-recovery",
       QCheck_alcotest.to_alcotest prop_bb_journal_replay
       :: [ Alcotest.test_case "full pipeline cold restart" `Quick
              test_full_pipeline_recovery;
            Alcotest.test_case "create on a written journal = live node" `Quick
              test_create_reopens_journal ]) ]
