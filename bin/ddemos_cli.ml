(* Command-line front end for the D-DEMOS library.

     ddemos run       simulate a complete election (full or modeled)
     ddemos deploy    stream election state to disk and serve from it
     ddemos serve     host the node cluster on Unix sockets from a state dir
     ddemos liveness  print Theorem 1 / Table I bounds for parameters
     ddemos ballot    print a voter's ballot for a given setup seed

   The benchmark harness that regenerates the paper's figures lives in
   bench/main.exe (see EXPERIMENTS.md). *)

module Types = Ddemos.Types
module Ea = Ddemos.Ea
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Election_store = Ddemos.Election_store
module Board = Ddemos.Board
module Auditor = Ddemos.Auditor
module Liveness = Ddemos.Liveness
module Segment = Dd_segment.Segment
module File_device = Dd_store.File_device
module Stats = Dd_sim.Stats

open Cmdliner

(* --- shared options ---------------------------------------------------- *)

let voters =
  Arg.(value & opt int 10 & info [ "voters"; "n" ] ~docv:"N" ~doc:"Number of registered voters.")

let options_ =
  Arg.(value & opt int 3 & info [ "options"; "m" ] ~docv:"M" ~doc:"Number of election options.")

let nv = Arg.(value & opt int 4 & info [ "vc" ] ~docv:"NV" ~doc:"Number of vote collector nodes.")

let fv =
  Arg.(value & opt int 1 & info [ "fv" ] ~docv:"FV" ~doc:"Tolerated Byzantine VC nodes (Nv >= 3fv+1).")

let seed =
  Arg.(value & opt string "ddemos" & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic run seed.")

let cfg_of ~voters ~m ~nv ~fv =
  { Types.default_config with
    Types.n_voters = voters; Types.m_options = m; Types.nv; Types.fv }

(* [turnout] voters (all when out of range) spread evenly over the
   serials, choosing the options round-robin. *)
let votes_of ~voters ~m turnout =
  let turnout = if turnout <= 0 || turnout > voters then voters else turnout in
  ( turnout,
    List.init turnout (fun i ->
        { Election.vi_serial = i * (voters / turnout); Election.vi_choice = i mod m }) )

(* Audit the boards' majority view and print every check; exit 1 when no
   majority view assembles or a check fails. *)
let audit_or_exit ~cfg bb_nodes =
  match Auditor.assemble ~cfg bb_nodes with
  | None -> print_endline "audit: no majority view"; exit 1
  | Some view ->
    let checks = Auditor.audit view in
    Auditor.pp_checks Format.std_formatter checks;
    Printf.printf "audit: %s\n" (if Auditor.all_ok checks then "PASS" else "FAIL");
    if not (Auditor.all_ok checks) then exit 1

(* Run the election and print its receipts and tally; [detail] adds the
   latency, phase and expected-tally lines. With [audit], audit the
   boards of a full-crypto run (exiting 1 on failure). *)
let run_and_report ~detail ~audit ~turnout (p : Election.params) =
  let r = Election.run p in
  Printf.printf "receipts: %d/%d  (bad %d, rejected %d)\n" r.Election.receipts_ok turnout
    r.Election.receipts_bad r.Election.rejections;
  if detail then begin
    Printf.printf "latency: mean %.4fs p99 %.4fs | throughput %.1f votes/s | %d messages\n"
      (Stats.mean r.Election.latencies) (Stats.p99 r.Election.latencies)
      r.Election.throughput r.Election.messages;
    let ph = r.Election.phases in
    Printf.printf "phases: collection %.3fs, consensus %.3fs, tally %.3fs, publish %.3fs\n"
      (ph.Election.t_end -. ph.Election.t_first_submit)
      (ph.Election.t_vsc_done -. ph.Election.t_end)
      (ph.Election.t_encrypted_tally -. ph.Election.t_vsc_done)
      (ph.Election.t_published -. ph.Election.t_encrypted_tally)
  end;
  let print_counts label counts =
    print_string label;
    Array.iteri (fun i c -> Printf.printf "option%d=%d " i c) counts;
    print_newline ()
  in
  (match r.Election.tally with
   | Some t ->
     print_counts "tally:   " t;
     if detail then print_counts "expected " r.Election.expected_tally
   | None -> print_endline "tally: none published");
  if audit then
    match p.Election.fidelity with
    | Election.Source _ ->
      audit_or_exit ~cfg:p.Election.cfg r.Election.bb_nodes
    | Election.Modeled -> print_endline "audit: only available for full-crypto runs"

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let turnout =
    Arg.(value & opt int 0
         & info [ "turnout" ] ~docv:"K" ~doc:"Voters actually casting (default: all).")
  in
  let modeled =
    Arg.(value & flag
         & info [ "modeled" ]
           ~doc:"Skip the real cryptography (PRF ballots, MAC authenticators); \
                 scales to millions of voters.")
  in
  let byzantine =
    Arg.(value & opt int 0
         & info [ "byzantine" ] ~docv:"B" ~doc:"Number of VC nodes made silently faulty.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "clients"; "cc" ] ~docv:"CC" ~doc:"Concurrent voting clients.")
  in
  let wan = Arg.(value & flag & info [ "wan" ] ~doc:"Add 25 ms WAN latency between machines.") in
  let audit = Arg.(value & flag & info [ "audit" ] ~doc:"Run the full audit afterwards (full-crypto runs).") in
  let run voters m nv fv seed turnout modeled byzantine clients wan audit =
    let cfg = cfg_of ~voters ~m ~nv ~fv in
    (match Types.validate_config cfg with
     | Error e -> prerr_endline ("invalid configuration: " ^ e); exit 1
     | Ok () -> ());
    let turnout, votes = votes_of ~voters ~m turnout in
    let fidelity =
      if modeled then Election.Modeled
      else begin
        Printf.printf "EA setup (%d ballots, real crypto)...\n%!" voters;
        Election.Source (Node_source.of_setup (Ea.setup cfg ~seed))
      end
    in
    let p = Election.default_params ~fidelity cfg ~votes in
    let p =
      { p with
        Election.seed;
        concurrent_clients = clients;
        latency = (if wan then Dd_sim.Net.wan () else Dd_sim.Net.lan);
        byzantine_vc = List.init byzantine (fun i -> (i, Election.Silent));
        voter_patience = 5. }
    in
    Printf.printf "running election: n=%d m=%d Nv=%d fv=%d byz=%d cc=%d %s %s\n%!"
      voters m nv fv byzantine clients (if wan then "WAN" else "LAN")
      (if modeled then "(modeled)" else "(full crypto)");
    run_and_report ~detail:true ~audit ~turnout p
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a complete election.")
    Term.(const run $ voters $ options_ $ nv $ fv $ seed
          $ turnout $ modeled $ byzantine $ clients $ wan $ audit)

(* --- deploy -------------------------------------------------------------- *)

(* Long-running deployment mode: election state lives in append-only
   segment files under --state-dir, written by a streaming (and
   crash-resumable) setup pass and served back with bounded memory.
   Running the same command again after a mid-setup crash resumes from
   the last durable checkpoint and produces bit-identical files. *)
let deploy_cmd =
  let state_dir =
    Arg.(required
         & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Directory holding the election's segment files (created if missing).")
  in
  let plain =
    Arg.(value & flag
         & info [ "plain" ]
             ~doc:"Plain profile: stream only the vote-code validation material \
                   (salted hashes) instead of the full cryptographic setup; \
                   scales to millions of voters.")
  in
  let chunk =
    Arg.(value & opt int 0
         & info [ "chunk-size" ] ~docv:"C"
             ~doc:"Records per segment chunk / durable checkpoint (default 1024).")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ] ~doc:"After setup, stream-verify the on-disk state.")
  in
  let audit_slice =
    Arg.(value & opt int (-1)
         & info [ "audit-slice" ] ~docv:"K"
             ~doc:"Verify only chunk K against the segment root (reads nothing else).")
  in
  let run_election =
    Arg.(value & flag
         & info [ "run" ]
             ~doc:"Run a full election served from the on-disk segments \
                   (full profile only).")
  in
  let turnout =
    Arg.(value & opt int 0
         & info [ "turnout" ] ~docv:"K" ~doc:"With --run: voters actually casting (default: all).")
  in
  let hex = Dd_crypto.Sha256.hex_of_string in
  let deploy voters m nv fv seed state_dir plain chunk verify audit_slice run_election turnout =
    let cfg = cfg_of ~voters ~m ~nv ~fv in
    (match Types.validate_config cfg with
     | Error e -> prerr_endline ("invalid configuration: " ^ e); exit 1
     | Ok () -> ());
    if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
    let chunk_size = if chunk > 0 then Some chunk else None in
    let devices name = File_device.create ~dir:state_dir ~name in
    if plain then begin
      let dev = devices Election_store.plain_segment in
      Printf.printf "streaming plain validation material for %d voters to %s...\n%!"
        voters state_dir;
      let t0 = Sys.time () in
      let manifest = Election_store.write_plain ?chunk_size dev cfg ~seed in
      Printf.printf "sealed %S: %d records, %d chunks, root %s (%.2fs cpu)\n"
        Election_store.plain_segment manifest.Segment.total
        (Segment.n_chunks manifest) (hex manifest.Segment.root) (Sys.time () -. t0);
      if audit_slice >= 0 then begin
        match
          Election_store.verify_plain_slice dev cfg manifest
            ~root:manifest.Segment.root audit_slice
        with
        | Ok k -> Printf.printf "slice %d: %d records verified against the root\n" audit_slice k
        | Error e -> Printf.printf "slice %d: FAIL — %s\n" audit_slice e; exit 1
      end;
      if verify then begin
        match Election_store.verify_plain dev cfg manifest with
        | Ok k -> Printf.printf "verified %d records (streaming, one chunk resident)\n" k
        | Error e -> Printf.printf "verify: FAIL — %s\n" e; exit 1
      end
    end
    else begin
      Printf.printf "streaming full-crypto setup for %d voters to %s...\n%!" voters state_dir;
      let t0 = Sys.time () in
      let layout = Election_store.resume_setup ?chunk_size devices cfg ~seed in
      let pr name (mf : Segment.manifest) =
        Printf.printf "  %-12s %7d records %5d chunks %9d B  root %s\n" name mf.Segment.total
          (Segment.n_chunks mf) ((devices name).Dd_store.Device.log_size ())
          (String.sub (hex mf.Segment.root) 0 16)
      in
      Printf.printf "sealed layout (%.2fs cpu):\n" (Sys.time () -. t0);
      pr Election_store.bb_segment layout.Election_store.l_bb;
      pr Election_store.ballots_segment layout.Election_store.l_ballots;
      Array.iteri (fun i mf -> pr (Election_store.vc_segment i) mf)
        layout.Election_store.l_vc;
      Array.iteri (fun i mf -> pr (Election_store.trustee_segment i) mf)
        layout.Election_store.l_trustee;
      let board () =
        Board.create (devices Election_store.bb_segment)
          layout.Election_store.l_bb
      in
      if audit_slice >= 0 then begin
        let b = board () in
        match Board.slice_proof b audit_slice, Board.slice b audit_slice with
        | Some (chunk_root, proof), Some (first, ballots)
          when Segment.verify_slice ~root:(Board.root b) ~chunk_root proof ->
          Printf.printf "slice %d: %d ballots (serials %d..%d) verified against root %s\n"
            audit_slice (Array.length ballots) first
            (first + Array.length ballots - 1)
            (String.sub (hex (Board.root b)) 0 16)
        | _ -> Printf.printf "slice %d: FAIL\n" audit_slice; exit 1
      end;
      if verify then begin
        let b = board () in
        let count = ref 0 in
        if Board.iter b (fun _ -> incr count) && !count = voters then
          Printf.printf "verified %d board ballots (streaming, cache %s)\n" !count
            (match Board.cache_stats b with
             | Some (h, m) -> Printf.sprintf "%d hits / %d misses" h m
             | None -> "-")
        else begin
          Printf.printf "verify: FAIL — board stream stopped at %d\n" !count;
          exit 1
        end
      end;
      if run_election then begin
        let turnout, votes = votes_of ~voters ~m turnout in
        let fidelity = Election.Source (Node_source.of_layout ~devices layout) in
        let p = Election.default_params ~fidelity cfg ~votes in
        let p = { p with Election.seed; voter_patience = 5. } in
        Printf.printf "running election from on-disk state: n=%d turnout=%d\n%!" voters turnout;
        run_and_report ~detail:false ~audit:true ~turnout p
      end
    end
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:"Stream election state into segment files under --state-dir and serve from them. \
             Re-running after a crash resumes from the last durable checkpoint.")
    Term.(const deploy $ voters $ options_ $ nv $ fv $ seed $ state_dir $ plain $ chunk
          $ verify $ audit_slice $ run_election $ turnout)

(* --- serve ---------------------------------------------------------------- *)

(* Long-running serving mode: boot the VC/BB cluster from a sealed
   `ddemos deploy` state dir and expose each VC node on a Unix-domain
   socket. The byte-stream runtime (lib/serve) does all the work; this
   command only owns the listeners and the tick loop. With --cast the
   command additionally drives an in-process load generator over those
   same sockets — a deployment self-test exercising the real wire
   path end to end. *)
let serve_cmd =
  let module Runtime = Dd_serve.Runtime in
  let module Loadgen = Dd_serve.Loadgen in
  let module Socket = Dd_serve.Socket in
  let state_dir =
    Arg.(required
         & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Sealed election state written by `ddemos deploy`.")
  in
  let socket_dir =
    Arg.(value & opt (some string) None
         & info [ "socket-dir" ] ~docv:"DIR"
             ~doc:"Directory for the per-node listening sockets \
                   vc0.sock .. vcN.sock (default: the state dir).")
  in
  let cast =
    Arg.(value & opt int 0
         & info [ "cast" ] ~docv:"K"
             ~doc:"Self-test: cast K votes through the sockets with the \
                   in-process load generator, then close the election \
                   and print the receipts and the BB final sets.")
  in
  let clients =
    Arg.(value & opt int 8
         & info [ "clients"; "cc" ] ~docv:"CC"
             ~doc:"With --cast: concurrent closed-loop clients.")
  in
  let max_ticks =
    Arg.(value & opt int 0
         & info [ "max-ticks" ] ~docv:"T"
             ~doc:"Stop after T scheduler ticks (default: run until \
                   interrupted).")
  in
  let no_batch =
    Arg.(value & flag
         & info [ "no-batch" ]
             ~doc:"Disable the batched signature-verification stage \
                   (serial verify, the Fig.-4 ablation).")
  in
  let serve voters m nv fv seed state_dir socket_dir cast clients max_ticks no_batch =
    let cfg = cfg_of ~voters ~m ~nv ~fv in
    (match Types.validate_config cfg with
     | Error e -> prerr_endline ("invalid configuration: " ^ e); exit 1
     | Ok () -> ());
    let devices name = File_device.create ~dir:state_dir ~name in
    let layout =
      match Election_store.load_layout devices cfg ~seed with
      | Some l -> l
      | None ->
        Printf.eprintf
          "serve: no sealed layout under %s for this configuration — run \
           `ddemos deploy --state-dir %s` first\n"
          state_dir state_dir;
        exit 1
    in
    let source = Runtime.source_of_layout ~devices layout in
    let params = { Runtime.default_params with Runtime.batching = not no_batch } in
    let t = Runtime.create ~params source in
    let sock_dir = match socket_dir with Some d -> d | None -> state_dir in
    if not (Sys.file_exists sock_dir) then Sys.mkdir sock_dir 0o755;
    let sock_path i = Filename.concat sock_dir (Printf.sprintf "vc%d.sock" i) in
    let listeners = Array.init nv (fun i -> Socket.listen ~path:(sock_path i) ()) in
    Array.iteri (fun i _ -> Printf.printf "vc%d listening on %s\n%!" i (sock_path i)) listeners;
    let accept_all () =
      Array.iteri
        (fun i l ->
           let rec go () =
             match Socket.accept l with
             | Some conn -> Runtime.accept t ~node:i conn; go ()
             | None -> ()
           in
           go ())
        listeners
    in
    let tick () = accept_all (); Runtime.step t in
    let print_stats () =
      let s = Runtime.stats t in
      Printf.printf
        "frames: %d in / %d out | bytes: %d in / %d out | shed: %d votes, %d peer msgs, \
         %d conns | %d ticks\n"
        s.Runtime.frames_in s.Runtime.frames_out s.Runtime.bytes_in s.Runtime.bytes_out
        s.Runtime.votes_shed
        s.Runtime.peer_dropped s.Runtime.conns_shed s.Runtime.steps
    in
    if cast > 0 then begin
      (* deployment self-test: real ballots from the sealed segments,
         real frames through the real sockets *)
      let cast = if cast > voters then voters else cast in
      let ballot_for = source.Runtime.sv_ballot_for in
      let votes =
        List.init cast (fun i ->
            { Loadgen.serial = i * (voters / cast); Loadgen.choice = i mod m })
      in
      let conns = Hashtbl.create 64 in
      let conn_for ~client ~node =
        match Hashtbl.find_opt conns (client, node) with
        | Some c -> c
        | None ->
          let c = Socket.connect ~path:(sock_path node) in
          Hashtbl.add conns (client, node) c;
          c
      in
      let lp = { Loadgen.default_params with Loadgen.lg_clients = clients; lg_seed = seed } in
      Printf.printf "casting %d votes over %d sockets (%d clients, %s verify)...\n%!"
        cast nv clients (if no_batch then "serial" else "batched");
      let r = Loadgen.run ~params:lp ~conn_for ~step:tick ~ballot_for ~nv ~votes () in
      Printf.printf "receipts: %d/%d  (bad %d, rejected %d, exhausted %d, lost %d)\n"
        r.Loadgen.receipts_ok cast r.Loadgen.receipts_bad r.Loadgen.rejections
        r.Loadgen.exhausted r.Loadgen.lost;
      Runtime.end_election t;
      ignore (Runtime.run_until_idle t);
      for j = 0 to cfg.Types.nb - 1 do
        match Runtime.bb_node t j with
        | Some bb ->
          (match (Ddemos.Bb_node.published bb).Ddemos.Bb_node.final_set with
           | Some set -> Printf.printf "bb%d final set: %d votes\n" j (List.length set)
           | None -> Printf.printf "bb%d final set: none published\n" j)
        | None -> ()
      done;
      print_stats ();
      Array.iter Socket.close_listener listeners;
      if r.Loadgen.receipts_ok <> cast then exit 1
    end
    else begin
      (* plain serving loop: tick the cluster, sleep when idle *)
      let ticks = ref 0 in
      (try
         while max_ticks <= 0 || !ticks < max_ticks do
           incr ticks;
           if tick () = 0 then Unix.sleepf 0.02
         done
       with Sys.Break -> ());
      print_stats ();
      Array.iter Socket.close_listener listeners
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Host the VC/BB node cluster on Unix-domain sockets, serving a \
             sealed --state-dir election. --cast runs a wire-path self-test.")
    Term.(const serve $ voters $ options_ $ nv $ fv $ seed $ state_dir $ socket_dir
          $ cast $ clients $ max_ticks $ no_batch)

(* --- liveness ------------------------------------------------------------ *)

let liveness_cmd =
  let tcomp =
    Arg.(value & opt float 0.002
         & info [ "tcomp" ] ~docv:"S" ~doc:"Worst-case per-procedure computation time (s).")
  in
  let drift =
    Arg.(value & opt float 0.001 & info [ "drift" ] ~docv:"S" ~doc:"Clock drift bound Delta (s).")
  in
  let delay =
    Arg.(value & opt float 0.03 & info [ "delay" ] ~docv:"S" ~doc:"Message delay bound delta (s).")
  in
  let show nv fv tcomp drift delay =
    let p = { Liveness.nv; fv; t_comp = tcomp; delta_drift = drift; delta_msg = delay } in
    Printf.printf "Table I bounds for Nv=%d fv=%d Tcomp=%gs Delta=%gs delta=%gs\n\n" nv fv tcomp
      drift delay;
    List.iter
      (fun s -> Printf.printf "  %-45s %.4f s\n" s.Liveness.label (Liveness.step_bound p s))
      (Liveness.steps p);
    Printf.printf "\nTwait = %.4f s\n" (Liveness.t_wait p);
    Printf.printf "a [Twait]-patient voter starting (fv+1) Twait = %.4f s before close is\n"
      (float_of_int (fv + 1) *. Liveness.t_wait p);
    print_endline "guaranteed a receipt; earlier starts:";
    List.iter
      (fun y ->
         Printf.printf "  y=%d: probability %.6f\n" y (Liveness.receipt_probability p ~y))
      [ 1; 2; 3 ]
  in
  Cmd.v (Cmd.info "liveness" ~doc:"Print Theorem 1 / Table I liveness bounds.")
    Term.(const show $ nv $ fv $ tcomp $ drift $ delay)

(* --- ballot --------------------------------------------------------------- *)

let ballot_cmd =
  let serial =
    Arg.(value & opt int 0 & info [ "serial" ] ~docv:"S" ~doc:"Ballot serial number.")
  in
  let show voters m nv fv seed serial =
    ignore voters; ignore nv; ignore fv;
    let b = Ddemos.Ballot_gen.voter_ballot ~seed ~serial ~m in
    Printf.printf "ballot serial %d (seed %S)\n" serial seed;
    List.iter
      (fun part ->
         Printf.printf "part %s:\n" (Types.part_label part);
         Array.iteri
           (fun option (line : Types.ballot_line) ->
              Printf.printf "  option %d: vote-code %s  receipt %s\n" option
                (Dd_crypto.Sha256.hex_of_string line.Types.vote_code)
                (Dd_crypto.Sha256.hex_of_string line.Types.receipt))
           (Types.ballot_part b part).Types.lines)
      [ Types.A; Types.B ]
  in
  Cmd.v (Cmd.info "ballot" ~doc:"Print the two-part ballot a voter would receive.")
    Term.(const show $ voters $ options_ $ nv $ fv $ seed $ serial)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "ddemos" ~version:"1.0.0"
             ~doc:"D-DEMOS distributed end-to-end verifiable voting (ICDCS 2016 reproduction)")
          [ run_cmd; deploy_cmd; serve_cmd; liveness_cmd; ballot_cmd ]))
