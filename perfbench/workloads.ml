(* The benchmark's three workloads (README.md says why each exists). A
   run is one fresh process, single-threaded under the program's
   defaults (one domain), with all load over in-process Pipe
   transports. The work is a function of (--seconds, --seed) alone, so
   every counter of a run repeats exactly. Latencies are wall-clock at
   the benchmark's own send and receive calls: the serving runtime's
   clock is a logical tick. *)

module Types = Ddemos.Types
module Auth = Ddemos.Auth
module Ea = Ddemos.Ea
module Vc_node = Ddemos.Vc_node
module Bb_node = Ddemos.Bb_node
module Bb_reader = Ddemos.Bb_reader
module Board = Ddemos.Board
module Trustee = Ddemos.Trustee
module Auditor = Ddemos.Auditor
module Election = Ddemos.Election
module Election_store = Ddemos.Election_store
module Ballot_gen = Ddemos.Ballot_gen
module Runtime = Dd_serve.Runtime
module Loadgen = Dd_serve.Loadgen
module Batcher = Dd_serve.Batcher
module Segment = Dd_segment.Segment
module Drbg = Dd_crypto.Drbg

exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

type kind = Cast_rush | Cast_trickle | Election_day

let names =
  [ ("cast-rush", Cast_rush); ("cast-trickle", Cast_trickle); ("election-day", Election_day) ]

(* Work per second of --seconds, sized so a run measures about that
   long on a 2-vCPU host. *)
let rush_votes = 25
let trickle_votes = 8
let day_voters = 2
let rush_clients = 64
let day_clients = 16
let trickle_rate = 12. (* votes/s: about a fifth of cast-rush throughput *)
let cast_rounds = 5 (* a cast workload runs this many elections in turn *)

type metric = string * float * string (* name, value, unit *)

type result = {
  outputs : Checks.outputs list;  (* one per election *)
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (* traced runs only *)
  wall_s : float;           (* summed wall time of the measured phases *)
  notes : string list;
}

let timed f =
  let t0 = Trace.now () in
  let r = f () in
  (r, Trace.now () -. t0)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let config ~seed n =
  { Types.default_config with
    Types.n_voters = n; m_options = 3; election_id = "perfbench|" ^ seed }

let intents ~seed ~m n =
  let rng = Drbg.create ~seed:("choices|" ^ seed) in
  Array.to_list (Array.init n (fun serial -> { Loadgen.serial; choice = Drbg.int rng m }))

(* The per-signer verification tables are built on first use; building
   them is set-up, not a cost of the first votes. The clique shares one
   set of cells. *)
let warm_tables (keys : Auth.keys array) =
  Array.iter (fun c -> ignore (Dd_parallel.Once.force c)) keys.(0).Auth.pk_tables;
  Array.iter (fun c -> ignore (Dd_parallel.Once.force c)) keys.(0).Auth.pk_pre

(* VmHWM: the process's resident-set high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line ->
      (match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
       | kb -> Some kb
       | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
  in
  let kb = scan () in
  close_in ic;
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> fail "no VmHWM in /proc/self/status"

(* --- serving-runtime counters ------------------------------------------- *)

type serve = { ticks : int; frames : int; bytes : int }

let serve_now rt =
  let s = Runtime.stats rt in
  { ticks = s.Runtime.steps; frames = s.Runtime.frames_in; bytes = s.Runtime.bytes_in }

let serve_since a rt =
  let b = serve_now rt in
  { ticks = b.ticks - a.ticks; frames = b.frames - a.frames; bytes = b.bytes - a.bytes }

let batch_since (a : Batcher.stats) rt =
  let b = Runtime.batch_stats rt in
  { Batcher.batch_calls = b.Batcher.batch_calls - a.Batcher.batch_calls;
    batched = b.Batcher.batched - a.Batcher.batched;
    serial = b.Batcher.serial - a.Batcher.serial;
    cache_hits = b.Batcher.cache_hits - a.Batcher.cache_hits }

let serve_add a b = { ticks = a.ticks + b.ticks; frames = a.frames + b.frames; bytes = a.bytes + b.bytes }

let batch_add (a : Batcher.stats) (b : Batcher.stats) =
  { Batcher.batch_calls = a.Batcher.batch_calls + b.Batcher.batch_calls;
    batched = a.Batcher.batched + b.Batcher.batched;
    serial = a.Batcher.serial + b.Batcher.serial;
    cache_hits = a.Batcher.cache_hits + b.Batcher.cache_hits }

let decisions rt =
  Array.init (Runtime.config rt).Types.nv (fun i -> Vc_node.decisions (Runtime.vc_node rt i))

(* The cluster's own counters, read once its election is over. *)
type counts = { accepted : int; issued : int; shed : int; board_hits : int; board_misses : int }

let counts rt =
  let cfg = Runtime.config rt in
  let vcs g =
    List.fold_left (fun acc i -> acc + g (Runtime.vc_node rt i)) 0 (List.init cfg.Types.nv Fun.id)
  in
  let board_hits, board_misses =
    List.fold_left
      (fun (h, m) j ->
         match Option.bind (Runtime.bb_node rt j) (fun bb -> Board.cache_stats (Bb_node.board bb)) with
         | Some (h', m') -> (h + h', m + m')
         | None -> (h, m))
      (0, 0) (List.init cfg.Types.nb Fun.id)
  in
  let st = Runtime.stats rt in
  { accepted = vcs Vc_node.votes_accepted; issued = vcs Vc_node.receipts_issued;
    shed =
      st.Runtime.votes_shed + st.Runtime.peer_dropped + st.Runtime.conns_shed
      + st.Runtime.malformed;
    board_hits; board_misses }

let counts_add a b =
  { accepted = a.accepted + b.accepted; issued = a.issued + b.issued; shed = a.shed + b.shed;
    board_hits = a.board_hits + b.board_hits; board_misses = a.board_misses + b.board_misses }

(* --- phases shared by the workloads -------------------------------------- *)

(* Closed loop through Loadgen, with every client connection probed. *)
let cast_closed tr rt ~ballots ~clients ~seed votes =
  let probe =
    Probe.closed ~gctx:(Runtime.gctx rt) ~ticks:(fun () -> (Runtime.stats rt).Runtime.steps)
  in
  let params = { Loadgen.default_params with Loadgen.lg_clients = clients; lg_seed = seed } in
  let r =
    Loadgen.run ~params
      ~conn_for:(fun ~client:_ ~node -> Probe.wrap_client probe (Runtime.client_conn rt ~node))
      ~step:(fun () ->
          Probe.tick probe;
          Trace.span tr "serve.step" (fun () -> Runtime.step rt))
      ~ballot_for:(fun serial -> ballots.(serial))
      ~nv:(Runtime.config rt).Types.nv ~votes ()
  in
  (r, Probe.replied probe)

(* Polls close: Vote Set Consensus runs until every VC node has
   submitted the agreed set. *)
let close tr rt =
  let nv = (Runtime.config rt).Types.nv in
  let submitted () =
    let rec from i =
      i >= nv || (Vc_node.phase (Runtime.vc_node rt i) = Vc_node.Submitted && from (i + 1))
    in
    from 0
  in
  Trace.span tr "vsc" (fun () ->
      Runtime.end_election rt;
      let quiet = ref 0 in
      while not (submitted ()) do
        if !quiet > 64 then fail "vote set consensus stalled";
        if Runtime.step rt = 0 then incr quiet else quiet := 0
      done)

(* Step until a majority of boards has opened the cast codes. *)
let await_open rt ~cfg bbs =
  let rec go quiet =
    match Bb_reader.voted_positions ~cfg bbs with
    | Bb_reader.Agreed voted -> voted
    | Bb_reader.No_majority ->
      if quiet > 64 then fail "the boards never opened the cast codes";
      go (if Runtime.step rt = 0 then quiet + 1 else 0)
  in
  go 0

(* Signature kernels on the run's own clique, batch-verified at the
   run's own batch size. *)
let kernels tr (keys : Auth.keys array) ~batch =
  let nv = Array.length keys - 1 in
  let reps = 256 in
  let msgs = Array.init reps (Printf.sprintf "perfbench kernel message %d") in
  let signer i = i mod nv in
  let tags, sign_s =
    timed (fun () ->
        Trace.span tr "kernel.sign" (fun () ->
            Array.mapi (fun i m -> Auth.sign keys.(signer i) m) msgs))
  in
  let verified, verify_s =
    timed (fun () ->
        Trace.span tr "kernel.verify" (fun () ->
            Array.mapi (fun i m -> Auth.verify keys.(0) ~signer:(signer i) m tags.(i)) msgs))
  in
  let batch = max 1 (min reps batch) in
  let calls = reps / batch in
  let batches =
    Array.init calls (fun c ->
        List.init batch (fun j ->
            let i = (c * batch) + j in
            (signer i, msgs.(i), tags.(i))))
  in
  let batched, batch_s =
    timed (fun () ->
        Trace.span tr "kernel.batch_verify" (fun () ->
            Array.map (Auth.verify_batch keys.(0)) batches))
  in
  if not (Array.for_all Fun.id verified && Array.for_all Fun.id batched) then
    fail "kernel signatures did not verify";
  let us s k = 1e6 *. s /. float_of_int k in
  [ ("sig.sign_us", us sign_s reps, "us");
    ("sig.verify_us", us verify_s reps, "us");
    ("sig.batch_verify_us_per_sig", us batch_s (calls * batch), "us") ]

(* --- what one election leaves ------------------------------------------------ *)

(* A run is one election (election-day) or several in turn (the cast
   workloads); each leaves its outputs for the checks and its counters
   and timings for the report. *)
type part = {
  p_outputs : Checks.outputs;
  p_replies : Probe.vote list;  (* cast-phase votes that got a reply *)
  p_valid : int;                (* valid receipts *)
  p_attempted : int;
  p_setup_s : float;
  p_cast_s : float;
  p_idle_s : float;             (* the open-loop generator's sleeps *)
  p_results_s : float;          (* polls closing to the verified result *)
  p_cast_serve : serve;
  p_vsc_serve : serve;
  p_cast_batch : Batcher.stats;
  p_counts : counts;
}

(* --- per-layer report (traced runs) ---------------------------------------- *)

(* What a run leaves for the per-layer report. *)
type facts = {
  keys : Auth.keys array;
  replies : Probe.vote list;
  cast_serve : serve;
  vsc_serve : serve;
  cast_batch : Batcher.stats;
  counts : counts;
  io : Probe.io;
  exchanges : int;
  view : Auditor.view option;
  phases_s : float;
  timings : metric list;      (* the run's wall-clock figures *)
}

let per_layer tr f =
  (* snapshot before the extra calls below add spans and reads *)
  let totals = Trace.totals tr and spans = Trace.count tr in
  let io = { f.io with Probe.appends = f.io.Probe.appends } in
  let self name = match Hashtbl.find_opt totals name with Some t -> t.Trace.self_s | None -> 0. in
  let total name =
    match Hashtbl.find_opt totals name with Some t -> t.Trace.total_s | None -> 0.
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let count x = float_of_int x in
  let pct q xs = if Array.length xs = 0 then 0. else Quant.percentile q xs in
  let receipts = List.filter (fun v -> v.Probe.v_receipt) f.replies in
  let ms g = Array.of_list (List.map (fun v -> 1e3 *. g v) receipts) in
  let c = f.counts in
  let b = f.cast_batch in
  (* the auditor's two heavy checks, timed apart from its full audit *)
  let zk_s, openings_s =
    match f.view with
    | None -> (0., 0.)
    | Some view ->
      let zk, zk_s = timed (fun () -> Trace.span tr "auditor.zk" (fun () -> Auditor.check_zk view)) in
      let op, op_s =
        timed (fun () -> Trace.span tr "auditor.openings" (fun () -> Auditor.check_openings view))
      in
      if not (zk.Auditor.ok && op.Auditor.ok) then fail "the auditor's checks failed on their own";
      (zk_s, op_s)
  in
  let seconds =
    [ ("ea.gen", self "setup");
      ("store.append", total "store.append");
      ("store.read", total "store.read");
      ("serve.step", self "serve.step");
      ("loadgen", self "cast");
      ("gen.idle", total "gen.idle");
      ("vsc", self "vsc");
      ("bb.open", self "bb.open");
      ("trustee", self "trustee");
      ("bb.tally", self "bb.tally");
      ("auditor.assemble", self "auditor.assemble");
      ("auditor.zk", zk_s);
      ("auditor.openings", openings_s);
      ("auditor.rest",
       if Option.is_none f.view then 0. else self "auditor.audit" -. zk_s -. openings_s) ]
  in
  let accounted = List.fold_left (fun acc (_, s) -> acc +. s) 0. seconds in
  let batch = int_of_float (Float.round (ratio b.Batcher.batched b.Batcher.batch_calls)) in
  (* layer times as shares of the run's phase wall time: the host's
     speed, which swings from run to run, cancels out of a share *)
  List.map (fun (name, s) -> (name ^ "_pct", 100. *. s /. f.phases_s, "%")) seconds
  @ f.timings
  @ [ ("serve.step_ms_p50",
       pct 50. (Array.map (fun d -> 1e3 *. d) (Trace.durations tr "serve.step")), "ms");
      ("serve.ticks", count f.cast_serve.ticks, "count");
      ("serve.shed", count c.shed, "count");
      ("batcher.obligations_per_call", ratio b.Batcher.batched b.Batcher.batch_calls, "count");
      ("batcher.cache_hit_ratio",
       ratio b.Batcher.cache_hits (b.Batcher.cache_hits + b.Batcher.serial), "ratio");
      ("batcher.serial_share", ratio b.Batcher.serial (b.Batcher.serial + b.Batcher.batched), "ratio");
      ("vc.votes_accepted", count c.accepted, "count");
      ("vc.receipts_issued", count c.issued, "count");
      ("vote.ticks_p50",
       pct 50. (Array.of_list (List.map (fun v -> float_of_int v.Probe.v_ticks) receipts)), "count");
      ("vote.wait_ms_p50", pct 50. (ms (fun v -> v.Probe.v_picked -. v.Probe.v_due)), "ms");
      ("gen.late_ms_p95", pct 95. (ms (fun v -> v.Probe.v_sent -. v.Probe.v_due)), "ms");
      ("vsc.ticks", count f.vsc_serve.ticks, "count");
      ("vsc.frames", count f.vsc_serve.frames, "count");
      ("vsc.bytes", count f.vsc_serve.bytes, "B");
      ("store.appends", count io.Probe.appends, "count");
      ("store.syncs", count io.Probe.syncs, "count");
      ("store.bytes_written", count io.Probe.bytes_written, "B");
      ("store.reads", count io.Probe.reads, "count");
      ("store.bytes_read", count io.Probe.bytes_read, "B");
      ("board.cache_hit_ratio", ratio c.board_hits (c.board_hits + c.board_misses), "ratio");
      ("trustee.exchanges", count f.exchanges, "count");
      ("trace.spans", count spans, "count");
      ("trace.accounted_pct", 100. *. accounted /. f.phases_s, "%") ]
  @ kernels tr f.keys ~batch

(* --- results --------------------------------------------------------------- *)

let finish tr ~keys ~io ~exchanges ~view parts =
  let sum g = List.fold_left (fun acc p -> acc +. g p) 0. parts in
  let isum g = List.fold_left (fun acc p -> acc + g p) 0 parts in
  let fold g add =
    match List.map g parts with x :: xs -> List.fold_left add x xs | [] -> fail "no election ran"
  in
  let replies = List.concat_map (fun p -> p.p_replies) parts in
  let valid = isum (fun p -> p.p_valid) and attempted = isum (fun p -> p.p_attempted) in
  let setups = Array.of_list (List.map (fun p -> p.p_setup_s) parts) in
  let cast_s = sum (fun p -> p.p_cast_s) and idle_s = sum (fun p -> p.p_idle_s) in
  let results_s = sum (fun p -> p.p_results_s) in
  let cast_serve = fold (fun p -> p.p_cast_serve) serve_add in
  let lat =
    Array.of_list
      (List.filter_map
         (fun v -> if v.Probe.v_receipt then Some (1e3 *. (v.Probe.v_done -. v.Probe.v_due)) else None)
         replies)
  in
  if valid = 0 || Array.length lat = 0 then fail "no vote got a receipt";
  List.iter
    (fun v -> Trace.record tr "vote" ~key:v.Probe.v_serial ~t0:v.Probe.v_due ~t1:v.Probe.v_done)
    replies;
  let phases_s = Array.fold_left ( +. ) 0. setups +. cast_s +. results_s in
  let per_vote x = float_of_int x /. float_of_int valid in
  (* The host runs in a fast and a slow mode, about 2x apart, that last
     seconds each. The fastest of the set-ups spread over the run is the
     one least inflated by the slow mode; extra set-up work raises it
     all the same. *)
  let end_to_end =
    [ ("setup_s", Array.fold_left Float.min infinity setups, "s");
      ("frames_per_vote", per_vote cast_serve.frames, "count");
      ("bytes_per_vote", per_vote cast_serve.bytes, "B");
      ("peak_rss_mb", peak_rss_mb (), "MB") ]
  in
  let timings =
    [ ("run.votes_per_s", float_of_int valid /. (cast_s -. idle_s), "1/s");
      ("run.cast_p50_ms", Quant.percentile 50. lat, "ms");
      ("run.cast_p95_ms", Quant.percentile 95. lat, "ms");
      ("run.results_s", results_s, "s") ]
  in
  let per_layer =
    if Trace.enabled tr then
      per_layer tr
        { keys; replies; cast_serve; vsc_serve = fold (fun p -> p.p_vsc_serve) serve_add;
          cast_batch = fold (fun p -> p.p_cast_batch) batch_add;
          counts = fold (fun p -> p.p_counts) counts_add; io; exchanges; view; phases_s; timings }
    else []
  in
  { outputs = List.map (fun p -> p.p_outputs) parts; attempted; failed = attempted - valid;
    end_to_end; per_layer; wall_s = phases_s;
    notes =
      [ Printf.sprintf "# %d votes attempted, %d failed; %d latency samples, %d beyond p95"
          attempted (attempted - valid) (Array.length lat) (Quant.beyond 95. lat);
        Printf.sprintf "# set-ups: %s s; cast %.3f s (idle %.3f s); results %.3f s"
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setups)))
          cast_s idle_s results_s;
        "# "
        ^ String.concat " "
            (List.map (fun (name, v, unit) -> Printf.sprintf "%s=%.4g%s" name v unit) timings) ] }

(* --- cast workloads: PRF ballots, real Schnorr clique, no BB ---------------- *)

(* One election: set up on a compacted heap (so each set-up starts from
   the same state and the process's peak is one election's), cast
   through [cast_phase], close the polls. *)
let prf_election tr cfg ~seed cast_phase =
  Gc.compact ();
  let (rt, keys, ballots), setup_s =
    timed (fun () ->
        Trace.span tr "setup" (fun () ->
            let src = Runtime.source_prf cfg ~seed in
            warm_tables src.Runtime.sv_keys;
            let ballots =
              Array.init cfg.Types.n_voters (fun serial ->
                  Ballot_gen.voter_ballot ~seed ~serial ~m:cfg.Types.m_options)
            in
            (Runtime.create src, src.Runtime.sv_keys, ballots)))
  in
  let serve0 = serve_now rt and batch0 = Runtime.batch_stats rt in
  let (replies, valid, bad, cast, idle_s), cast_s =
    timed (fun () -> Trace.span tr "cast" (fun () -> cast_phase cfg rt ballots ~seed))
  in
  let cast_serve = serve_since serve0 rt and cast_batch = batch_since batch0 rt in
  let serve1 = serve_now rt in
  let (), close_s = timed (fun () -> close tr rt) in
  ( keys,
    { p_outputs = { Checks.receipts_bad = bad; cast; decisions = decisions rt; election = None };
      p_replies = replies; p_valid = valid; p_attempted = cfg.Types.n_voters; p_setup_s = setup_s;
      p_cast_s = cast_s; p_idle_s = idle_s; p_results_s = close_s; p_cast_serve = cast_serve;
      p_vsc_serve = serve_since serve1 rt; p_cast_batch = cast_batch; p_counts = counts rt } )

(* [n] votes over [cast_rounds] elections in turn, each with its own
   seed, so set-up is timed at moments spread over the whole run. *)
let prf_workload tr ~seed ~n cast_phase =
  let rounds = max 1 (min cast_rounds n) in
  let elections =
    List.init rounds (fun k ->
        let votes = (n / rounds) + if k < n mod rounds then 1 else 0 in
        let seed = Printf.sprintf "%s|election %d" seed k in
        prf_election tr (config ~seed votes) ~seed cast_phase)
  in
  finish tr ~keys:(fst (List.hd elections)) ~io:(Probe.io ()) ~exchanges:0 ~view:None
    (List.map snd elections)

let cast_rush tr ~seed ~seconds =
  prf_workload tr ~seed ~n:(rush_votes * seconds) (fun cfg rt ballots ~seed ->
      let r, replies =
        cast_closed tr rt ~ballots ~clients:rush_clients ~seed
          (intents ~seed ~m:cfg.Types.m_options cfg.Types.n_voters)
      in
      (replies, r.Loadgen.receipts_ok, r.Loadgen.receipts_bad, r.Loadgen.successes, 0.))

let cast_trickle tr ~seed ~seconds =
  prf_workload tr ~seed ~n:(trickle_votes * seconds) (fun cfg rt ballots ~seed ->
      let idle_s = ref 0. in
      let idle sleep =
        let (), d = timed (fun () -> Trace.span tr "gen.idle" sleep) in
        idle_s := !idle_s +. d
      in
      let arrivals =
        Trickle.arrivals ~seed ~rate:trickle_rate ~m:cfg.Types.m_options cfg.Types.n_voters
      in
      let r =
        Trickle.run ~idle rt
          ~step:(fun () -> Trace.span tr "serve.step" (fun () -> Runtime.step rt))
          ~ballot_for:(fun serial -> ballots.(serial))
          ~seed arrivals
      in
      let replies =
        List.filter (fun v -> not (Float.is_nan v.Probe.v_done)) (Array.to_list r.Trickle.votes)
      in
      (replies, r.Trickle.valid, r.Trickle.bad, r.Trickle.cast, !idle_s))

(* --- election-day: full crypto on the deployment path ----------------------- *)

let read_records devices name manifest decode =
  match Segment.read_all (devices name) manifest with
  | None -> fail "segment %s is unreadable" name
  | Some records ->
    Array.map
      (fun r -> match decode r with Some x -> x | None -> fail "undecodable record in %s" name)
      records

let election_day_in tr ~seed ~n ~dir =
  let cfg = config ~seed n in
  let io = Probe.io () in
  let devs = Hashtbl.create 16 in
  let devices name =
    match Hashtbl.find_opt devs name with
    | Some d -> d
    | None ->
      let d = Probe.wrap_device tr io (Dd_store.File_device.create ~dir ~name) in
      Hashtbl.add devs name d;
      d
  in
  let queue = Queue.create () in
  (* set-up: the EA writes and seals the state dir, the cluster boots
     from it, voters get their printed ballots, trustees load their
     segments *)
  let (rt, keys, ballots, bbs, trustees), setup_s =
    timed (fun () ->
        Trace.span tr "setup" (fun () ->
            let layout = Election_store.write_setup devices cfg ~seed in
            let src = Runtime.source_of_layout ~devices layout in
            warm_tables src.Runtime.sv_keys;
            let rt = Runtime.create src in
            let bbs =
              List.init cfg.Types.nb (fun j ->
                  match Runtime.bb_node rt j with Some bb -> bb | None -> fail "no BB node %d" j)
            in
            let st = layout.Election_store.l_static in
            let gctx = st.Ea.st_gctx in
            let ballots =
              read_records devices Election_store.ballots_segment
                layout.Election_store.l_ballots Election_store.decode_voter_ballot
            in
            let trustee i =
              let init =
                { Ea.t_id = i;
                  t_ballots =
                    read_records devices (Election_store.trustee_segment i)
                      layout.Election_store.l_trustee.(i)
                      (Election_store.decode_trustee_record gctx) }
              in
              Trustee.create
                { Trustee.me = i; cfg; gctx; init; keys = st.Ea.st_trustee_keys.(i);
                  send_trustee = (fun ~dst ex -> Queue.add (dst, ex) queue);
                  post_bb =
                    (fun payload ->
                       Trace.span tr "bb.tally" (fun () ->
                           List.iter (fun bb -> Bb_node.on_trustee_post bb ~trustee:i payload) bbs));
                  durable = None }
            in
            (rt, src.Runtime.sv_keys, ballots, bbs, Array.init cfg.Types.nt trustee)))
  in
  let votes = intents ~seed ~m:cfg.Types.m_options n in
  let serve0 = serve_now rt and batch0 = Runtime.batch_stats rt in
  let (r, replies), cast_s =
    timed (fun () ->
        Trace.span tr "cast" (fun () -> cast_closed tr rt ~ballots ~clients:day_clients ~seed votes))
  in
  let cast_serve = serve_since serve0 rt and cast_batch = batch_since batch0 rt in
  let serve1 = serve_now rt in
  let (), close_s = timed (fun () -> close tr rt) in
  let vsc_serve = serve_since serve1 rt in
  (* results: the boards open the cast codes, the trustees finish the
     proofs and open the tally, the public reads it by majority *)
  let exchanges = ref 0 in
  let tally, tally_s =
    timed (fun () ->
        let voted = Trace.span tr "bb.open" (fun () -> await_open rt ~cfg bbs) in
        Trace.span tr "trustee" (fun () ->
            Array.iter (fun t -> Trustee.on_election_data t ~voted) trustees;
            while not (Queue.is_empty queue) do
              let dst, ex = Queue.pop queue in
              incr exchanges;
              if dst >= 0 && dst < Array.length trustees then Trustee.on_exchange trustees.(dst) ex
            done;
            Bb_reader.tally ~cfg bbs))
  in
  let (view, audit), audit_s =
    timed (fun () ->
        let view =
          match
            Trace.span tr "auditor.assemble" (fun () ->
                Auditor.assemble ~cfg ~gctx:(Runtime.gctx rt) bbs)
          with
          | Some view -> view
          | None -> fail "the auditor found no majority view"
        in
        (view, Trace.span tr "auditor.audit" (fun () -> Auditor.audit view)))
  in
  let majority = function Bb_reader.Agreed x -> Some x | Bb_reader.No_majority -> None in
  let choice = Hashtbl.create n in
  List.iter
    (fun (v : Loadgen.vote_intent) -> Hashtbl.replace choice v.Loadgen.serial v.Loadgen.choice)
    votes;
  let expected =
    Election.expected_tally cfg
      (List.map
         (fun (serial, _) -> { Election.vi_serial = serial; vi_choice = Hashtbl.find choice serial })
         r.Loadgen.successes)
  in
  let election =
    Some
      { Checks.tally = majority tally; expected;
        final_set = majority (Bb_reader.final_set ~cfg bbs); audit }
  in
  finish tr ~keys ~io ~exchanges:!exchanges ~view:(Some view)
    [ { p_outputs =
          { Checks.receipts_bad = r.Loadgen.receipts_bad; cast = r.Loadgen.successes;
            decisions = decisions rt; election };
        p_replies = replies; p_valid = r.Loadgen.receipts_ok; p_attempted = n; p_setup_s = setup_s;
        p_cast_s = cast_s; p_idle_s = 0.; p_results_s = close_s +. tally_s +. audit_s;
        p_cast_serve = cast_serve; p_vsc_serve = vsc_serve; p_cast_batch = cast_batch;
        p_counts = counts rt } ]

(* The state dir lives under [state_root] and is removed afterwards. *)
let election_day tr ~seed ~seconds ~state_root =
  mkdir_p state_root;
  let dir = Filename.concat state_root (Printf.sprintf "state-%d" (Unix.getpid ())) in
  remove_dir dir;
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () -> election_day_in tr ~seed ~n:(day_voters * seconds) ~dir)

let run kind tr ~seed ~seconds ~state_root =
  match kind with
  | Cast_rush -> cast_rush tr ~seed ~seconds
  | Cast_trickle -> cast_trickle tr ~seed ~seconds
  | Election_day -> election_day tr ~seed ~seconds ~state_root
