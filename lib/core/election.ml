(* End-to-end election harness over the discrete-event simulator.

   Two fidelity levels share the identical vote-collection protocol
   (real salted-hash validation, real GF(256) receipt shares, real
   Bracha consensus):

   - [Source src]: the cluster's election data comes from a
     [Node_source.t], consumed as-is, as the serving runtime does. Full
     cryptography comes from sealed segments — an EA setup held in
     memory ([Node_source.of_setup], tests and examples) or a state dir
     an earlier setup sealed ([Node_source.of_layout], long-running
     deployments) — with real commitments, ZK proofs, VSS shares and
     Schnorr/MAC authenticators end to end, including the trustee and
     audit phases. Every node serves from its own sealed store.

   - [Modeled]: ballots come from the PRF-backed virtual store keyed by
     the run seed, node authenticators are pairwise MACs, and the
     post-election crypto is charged to the simulated clock from the
     cost model without being executed. This is what lets the benchmark
     sweep the paper's 200,000-ballot (and 250-million-ballot)
     configurations; the simulated service times always model the
     paper's signature-based implementation regardless of which
     authenticator actually runs.

   Node RNGs and the consensus coin come from the run's [params], never
   from the source. Clients behave like the paper's load generator:
   [cc] concurrent closed-loop voters, each submitting its next ballot
   as soon as the previous receipt arrives, with [d]-patient retry
   against unresponsive (Byzantine) VC nodes. *)

module Engine = Dd_sim.Engine
module Net = Dd_sim.Net
module Fault_plan = Dd_sim.Fault_plan
module Stats = Dd_sim.Stats
module Drbg = Dd_crypto.Drbg
module Binary_batch = Dd_consensus.Binary_batch
module Shamir_bytes = Dd_vss.Shamir_bytes
module Mem_device = Dd_store.Device.Mem

type vote_intent = {
  vi_serial : int;
  vi_choice : int;
}

(* Re-exported so existing callers keep using Election.Silent etc. *)
type byzantine_behavior = Adversary.behavior =
  | Silent
  | Drop_receipts
  | Equivocate
  | Corrupt_shares
  | Byzantine_consensus
  | Malformed_wire

type fidelity =
  | Source of Node_source.t
  | Modeled

type params = {
  cfg : Types.config;
  fidelity : fidelity;
  seed : string;
  latency : Net.latency_model;
  costs : Cost_model.t;
  concurrent_clients : int;
  votes : vote_intent list;
  byzantine_vc : (int * byzantine_behavior) list;
  byzantine_bb : int list;  (* BB nodes answering with tampered state *)
  faults : Fault_plan.t;    (* timed partitions, crashes, link faults *)
  (* the voters' retry policy (see Voter.policy) *)
  voter_patience : float;
  retry_cap : float;
  blacklist_rounds : int;
  coin : Binary_batch.coin;
  (* force election end at a fixed virtual time even if clients are
     still voting (paper-style fixed voting hours); [None] ends when
     every client finishes, like the paper's measurement runs *)
  end_after : float option;
  (* when false, stop after vote collection (the paper's Fig. 4 and
     5a/5b measurements cover only that phase) *)
  run_vsc : bool;
}

let default_params ?(fidelity = Modeled) cfg ~votes =
  { cfg; fidelity; seed = "election-seed";
    latency = Net.lan; costs = Cost_model.default;
    concurrent_clients = 40; votes;
    byzantine_vc = []; byzantine_bb = [];
    faults = Fault_plan.none;
    voter_patience = Voter.default_policy.Voter.patience;
    retry_cap = Voter.default_policy.Voter.cap;
    blacklist_rounds = Voter.default_policy.Voter.blacklist_rounds;
    coin = Binary_batch.Local;
    end_after = None;
    run_vsc = true }

(* The simulated deployment: VC nodes share [vc_machines] physical
   machines of [vc_cores] cores each, and a run stops at [max_sim_time]
   virtual seconds even with events still queued. *)
let vc_machines = 4
let vc_cores = 6
let max_sim_time = 500_000.

type phase_times = {
  mutable t_first_submit : float;
  mutable t_last_receipt : float;
  mutable t_end : float;                  (* election end / VSC start *)
  mutable t_vsc_done : float;             (* all honest VC nodes submitted *)
  mutable t_encrypted_tally : float;      (* BBs hold final set + encrypted tally *)
  mutable t_published : float;            (* tally published *)
}

type result = {
  latencies : Stats.sample_set;
  receipts_ok : int;
  receipts_bad : int;
  rejections : int;
  exhausted : int;                        (* voters who ran out of nodes *)
  phases : phase_times;
  throughput : float;                     (* receipts / vote-collection duration *)
  tally : Types.tally option;
  expected_tally : Types.tally;
  (* (serial, vote code) of every vote whose receipt verified *)
  successes : (int * string) list;
  (* attempt_counts.(k) = voters who needed exactly k+1 submissions
     (Theorem 1's [d]-patience retries) *)
  attempt_counts : int array;
  messages : int;
  bytes : int;
  (* full-fidelity artifacts for auditing *)
  bb_nodes : Bb_node.t list;
  vc_submit_sets : (int * (int * string) list) list;  (* per honest VC node *)
  (* [true] when the run hit [max_sim_time] with events still queued —
     timeout, as opposed to quiescence *)
  timed_out : bool;
  dropped : int;                          (* messages lost to faults *)
  (* union over honest nodes of conflicting-UCERT observations:
     (serial, node's certified code, conflicting certified code).
     Empty whenever at most fv collectors are Byzantine. *)
  ucert_conflicts : (int * string * string) list;
  (* each durable node's device backing (label "vc0", "bb1",
     "trustee2"), for crash-dump inspection; empty without durability *)
  devices : (string * Mem_device.backing) list;
}

(* --- simulated-network topology, for building fault plans ----------- *)
(* [run] registers nodes densely in this order, so ids are static:
   VC i, then BB j, then trustee k, then client c; machines are
   i mod vc_machines / 100+j / 200+k / 1000+c respectively. *)

let vc_net_node (_ : params) i = i
let bb_net_node p j = p.cfg.Types.nv + j
let trustee_net_node p k = p.cfg.Types.nv + p.cfg.Types.nb + k
let vc_machine (_ : params) i = i mod vc_machines

(* ---------------------------------------------------------------- *)

let vc_msg_cost costs cfg (msg : Messages.vc_msg) =
  let n = cfg.Types.n_voters and m = cfg.Types.m_options in
  let quorum = cfg.Types.nv - cfg.Types.fv in
  let base = costs.Cost_model.msg_overhead in
  base
  +. match msg with
  | Messages.Vote _ -> Cost_model.vote_validate costs ~n ~m +. costs.Cost_model.http_request
  | Messages.Endorse _ -> Cost_model.endorse_handle costs ~n ~m
  | Messages.Endorsement _ -> costs.Cost_model.sig_verify
  | Messages.Vote_p _ -> Cost_model.vote_p_handle costs ~n ~m ~quorum
  | Messages.Announce_batch { entries; _ } ->
    float_of_int (List.length entries)
    *. (costs.Cost_model.announce_entry +. Cost_model.ucert_verify costs ~quorum)
  | Messages.Consensus { rbc; _ } ->
    let payload_slots = float_of_int (String.length rbc.Dd_consensus.Rbc.payload) *. 4. in
    costs.Cost_model.consensus_step *. payload_slots
  | Messages.Recover_request { serials; _ } ->
    0.00001 *. float_of_int (List.length serials)
  | Messages.Recover_response { entries; _ } ->
    float_of_int (List.length entries) *. Cost_model.ucert_verify costs ~quorum

let expected_tally cfg votes =
  let t = Array.make cfg.Types.m_options 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun v ->
       if not (Hashtbl.mem seen v.vi_serial) then begin
         Hashtbl.replace seen v.vi_serial ();
         if v.vi_choice >= 0 && v.vi_choice < cfg.Types.m_options then
           t.(v.vi_choice) <- t.(v.vi_choice) + 1
       end)
    votes;
  t

let run (p : params) : result =
  (match Types.validate_config p.cfg with
   | Ok () -> ()
   (* lint: allow exception-hygiene — operator-facing config validation, not a network input *)
   | Error e -> invalid_arg ("Election.run: " ^ e));
  let cfg = p.cfg in
  let engine = Engine.create ~seed:("engine|" ^ p.seed) in
  let net = Net.create ~latency:p.latency ~faults:p.faults engine in

  (* --- node ids on the simulated network --- *)
  let vc_net = Array.init cfg.Types.nv (fun i ->
      Net.add_node net ~machine:(i mod vc_machines) ~cores:vc_cores)
  in
  let bb_net = Array.init cfg.Types.nb (fun i ->
      Net.add_node net ~machine:(100 + i) ~cores:4)
  in
  let trustee_net = Array.init cfg.Types.nt (fun i ->
      Net.add_node net ~machine:(200 + i) ~cores:4)
  in
  let n_clients = max 1 p.concurrent_clients in
  let client_net = Array.init n_clients (fun c ->
      Net.add_node net ~machine:(1000 + c) ~cores:1)
  in

  let phases = {
    t_first_submit = infinity; t_last_receipt = 0.; t_end = 0.;
    t_vsc_done = 0.; t_encrypted_tally = 0.; t_published = 0.;
  } in
  let election_end = ref infinity in

  (* --- election data: keys, stores, boards, trustees, ballots --- *)
  let src =
    match p.fidelity with
    | Source src -> src
    | Modeled -> Node_source.prf ~scheme:Auth.Mac_scheme cfg ~seed:p.seed
  in
  (* full cryptography: a source with BB boards *)
  let full_mode = Option.is_some src.Node_source.sv_bb in

  (* --- durable devices --- *)
  let crash_specs = Fault_plan.crash_specs p.faults in
  (* durable devices exactly when the fault plan crashes and recovers a
     protocol node, since recovery then needs a device to restart from *)
  let durability =
    List.exists
      (fun (node, _, recover) ->
         recover <> None && node < cfg.Types.nv + cfg.Types.nb + cfg.Types.nt)
      crash_specs
  in
  let vc_backing =
    Array.init cfg.Types.nv
      (fun _ -> if durability then Some (Mem_device.create ()) else None)
  in
  let bb_backing =
    Array.init cfg.Types.nb
      (fun _ -> if durability && full_mode then Some (Mem_device.create ()) else None)
  in
  let trustee_backing =
    Array.init cfg.Types.nt
      (fun _ -> if durability && full_mode then Some (Mem_device.create ()) else None)
  in
  let device_of backing = Option.map Mem_device.device backing in

  (* --- BB nodes (full mode) or a light model --- *)
  (* slot array rather than captured objects: a cold restart swaps the
     slot, and every delivery path reads it at delivery time; full-mode
     boards boot into it below, once their watchers exist *)
  let bb_arr : Bb_node.t option array = Array.make cfg.Types.nb None in
  let live_bbs () = Array.to_list bb_arr |> List.filter_map Fun.id in
  (* modeled BB state: collect sets per BB node *)
  let model_sets : (int, (int * (int * string) list) list ref) Hashtbl.t = Hashtbl.create 8 in
  let model_final : (int * string) list option ref = ref None in
  let honest_submits = ref [] in
  let n_cast = ref 0 in

  let byz i = List.assoc_opt i p.byzantine_vc in

  (* --- forward declarations for mutually recursive wiring --- *)
  let vc_nodes : Vc_node.t option array = Array.make cfg.Types.nv None in
  let adversaries : Adversary.t option array = Array.make cfg.Types.nv None in

  (* Deliver a VC message: Byzantine destinations see it through their
     adversary wrapper (which may act on it, forward it, or eat it). *)
  let deliver_vc dst msg =
    match vc_nodes.(dst) with
    | None -> ()
    | Some node ->
      (match adversaries.(dst) with
       | Some adv ->
         Adversary.handle_incoming adv ~honest:(fun m -> Vc_node.handle node m) msg
       | None -> Vc_node.handle node msg)
  in

  let end_election () =
    if !election_end = infinity then begin
      election_end := Net.now net;
      phases.t_end <- Net.now net;
      if p.run_vsc then
        Array.iteri
          (fun i _ ->
             let participates =
               match byz i with
               | None -> true
               | Some b -> Adversary.runs_vsc b
             in
             if participates then
               (* re-read the slot when the exec fires, and skip crashed
                  nodes ([Net.exec] does not model loss): a node down at
                  election end starts VSC itself on recovery *)
               Net.exec net ~dst:vc_net.(i) ~cost:0.001
                 (fun () ->
                    if Net.node_up net vc_net.(i) then
                      match vc_nodes.(i) with
                      | Some node -> Vc_node.start_vote_set_consensus node
                      | None -> ()))
          vc_net
    end
  in

  (* --- clients: the paper's closed-loop voters --- *)
  let after ~delay k = Engine.schedule_after engine ~delay k in
  let pool =
    Voter.Pool.create
      ~policy:
        { Voter.patience = p.voter_patience; cap = p.retry_cap;
          blacklist_rounds = p.blacklist_rounds }
      ~seed:p.seed ~clients:n_clients ~nv:cfg.Types.nv
      ~ballot_for:src.Node_source.sv_ballot_for
      { Voter.Pool.send =
          (fun ~client ~node ~req ~serial ~vote_code ->
             let msg = Messages.Vote { serial; vote_code; client; req } in
             Net.send net ~src:client_net.(client) ~dst:vc_net.(node)
               ~size:(Messages.vc_msg_size msg) ~cost:(vc_msg_cost p.costs cfg msg)
               (fun () -> deliver_vc node msg));
        arm_patience = after;
        wait = after;
        now = (fun () -> Net.now net);
        (* everything cast: election end, as in the paper's runs *)
        finished = end_election }
      (List.map (fun v -> { Voter.Pool.serial = v.vi_serial; choice = v.vi_choice }) p.votes)
  in

  let vc_submitted = ref 0 in
  let honest_vc = cfg.Types.nv - List.length p.byzantine_vc in

  let trustees_started = ref false in
  let start_trustees_full = ref (fun () -> ()) in

  let on_all_bb_final () =
    (* vote set agreed everywhere: record phase split and kick trustees *)
    if phases.t_encrypted_tally = 0. then begin
      phases.t_encrypted_tally <- Net.now net;
      if not !trustees_started then begin
        trustees_started := true;
        !start_trustees_full ()
      end
    end
  in
  (* BB publication watchers (full mode); also attached to cold-restarted
     boards, whose replay runs subscriber-free. Per-board flags, not a
     counter: a board that published, crashed, and republished on
     recovery must count once. *)
  let finals_seen = Array.make cfg.Types.nb false in
  let count_final j =
    if not finals_seen.(j) then begin
      finals_seen.(j) <- true;
      let n = Array.fold_left (fun n b -> if b then n + 1 else n) 0 finals_seen in
      if n >= cfg.Types.nb - cfg.Types.fb then on_all_bb_final ()
    end
  in
  let watch_bb j bb =
    Bb_node.subscribe_final_set bb (fun _ -> count_final j);
    Bb_node.subscribe_tally bb
      (fun _ -> if phases.t_published = 0. then phases.t_published <- Net.now net)
  in
  (* Boot (or cold-restart) board [j] from its device. *)
  let boot_bb j =
    match src.Node_source.sv_bb with
    | None -> ()
    | Some (init, board_for) ->
      let bb =
        (* lint: allow secret-taint — salt_msk is part of the BB node's own durable at-rest state, not a network message *)
        Bb_node.create ?durable:(device_of bb_backing.(j))
          ~board:(board_for j) ~cfg ~init ~me:j ()
      in
      bb_arr.(j) <- Some bb;
      watch_bb j bb;
      (* journal replay ran subscriber-free: fire catch-up
         notifications for anything published before a crash *)
      let pub = Bb_node.published bb in
      if pub.Bb_node.final_set <> None then count_final j; (* lint: allow secret-taint — option presence check, no secret bytes compared *)
      if pub.Bb_node.tally <> None && phases.t_published = 0. then (* lint: allow secret-taint — option presence check, no secret bytes compared *)
        phases.t_published <- Net.now net
  in
  for j = 0 to cfg.Types.nb - 1 do
    boot_bb j
  done;

  (* --- VC node environments --- *)
  (* [gen] counts cold restarts: a recovered node's rng must diverge
     from its first life's (the crash consumed an unknown prefix), but
     generation 0 keeps the historical seed string so existing
     deterministic traces are unchanged *)
  let make_vc_env ~gen i : Vc_node.env =
    let send_vc ~dst msg =
      let msg =
        match adversaries.(i) with
        | None -> Some msg
        | Some adv -> Adversary.transform_outgoing adv ~dst msg
      in
      match msg with
      | None -> ()   (* withheld by the adversary *)
      | Some msg ->
        let cost = vc_msg_cost p.costs cfg msg in
        let size = Messages.vc_msg_size msg in
        Net.send net ~src:vc_net.(i) ~dst:vc_net.(dst) ~size ~cost
          (fun () -> deliver_vc dst msg)
    in
    let reply ~client ~req outcome =
      let suppressed =
        match byz i with
        | Some b -> Adversary.suppresses_replies b
        | None -> false
      in
      if suppressed then ()
      else
        Net.send net ~src:vc_net.(i) ~dst:client_net.(client) ~size:64 ~cost:0.00001
          (fun () -> Voter.Pool.on_reply pool ~client ~req outcome)
    in
    let send_bb ~dst msg =
      (match msg with
       | Messages.Vote_set_submit { sender; set; _ } when dst = 0 && byz i = None ->
         if not (List.mem_assoc sender !honest_submits) then begin
           honest_submits := (sender, set) :: !honest_submits;
           incr vc_submitted;
           if !vc_submitted >= honest_vc then phases.t_vsc_done <- Net.now net
         end
       | Messages.Vote_set_submit _ | Messages.Trustee_post _ -> ());
      let cost =
        match msg with
        | Messages.Vote_set_submit { set; _ } ->
          0.001 +. (float_of_int (List.length set) *. p.costs.Cost_model.bb_verify_set)
        | Messages.Trustee_post _ -> 0.001
      in
      Net.send net ~src:vc_net.(i) ~dst:bb_net.(dst) ~size:(Messages.bb_msg_size msg) ~cost
        (fun () ->
           match full_mode with
           | false ->
             (* modeled BB: final-set agreement only. A Byzantine BB
                node simply contributes nothing to the emulated fb+1
                agreement (its copy is tampered, hence never identical
                to an honest one); real wrong-answer reads need full
                fidelity's Bb_reader *)
             if List.mem dst p.byzantine_bb then ()
             else
             (match msg with
              | Messages.Vote_set_submit { sender; set; _ } ->
                let sets =
                  match Hashtbl.find_opt model_sets dst with
                  | Some r -> r
                  | None -> let r = ref [] in Hashtbl.replace model_sets dst r; r
                in
                if not (List.mem_assoc sender !sets) then begin
                  sets := (sender, set) :: !sets;
                  let identical =
                    List.filter (fun (_, s) -> s = set) !sets
                  in
                  if List.length identical >= cfg.Types.fb + 1 && !model_final = None then begin
                    model_final := Some set;
                    n_cast := List.length set;
                    (* charge the modeled decrypt + homomorphic tally *)
                    let m = cfg.Types.m_options in
                    let decrypt_cost =
                      float_of_int (2 * cfg.Types.n_voters * m) *. p.costs.Cost_model.aes_block
                    in
                    let tally_cost =
                      float_of_int (!n_cast * m) *. p.costs.Cost_model.commit_add
                    in
                    Net.exec net ~dst:bb_net.(dst) ~cost:(decrypt_cost +. tally_cost)
                      (fun () -> on_all_bb_final ())
                  end
                end
              | Messages.Trustee_post _ -> ())
           | true ->
             (* a Byzantine BB node stores a tampered vote set and a
                corrupted msk share, so every read it later serves is
                genuinely wrong — Bb_reader's fb+1 majority must mask it *)
             let msg =
               if not (List.mem dst p.byzantine_bb) then msg
               else
                 match msg with
                 | Messages.Vote_set_submit { sender; set; msk_share } ->
                   let set = match set with [] -> [] | _ :: rest -> rest in
                   let data = msk_share.Shamir_bytes.data in
                   let data =
                     if String.length data = 0 then data
                     else
                       String.mapi
                         (fun k c ->
                            if k = 0 then Char.chr (Char.code c lxor 0xFF) else c)
                         data
                   in
                   Messages.Vote_set_submit
                     { sender; set; msk_share = { msk_share with Shamir_bytes.data = data } }
                 | Messages.Trustee_post _ -> msg
             in
             (match bb_arr.(dst) with
              | Some bb -> Bb_node.handle bb msg
              | None -> ()))
    in
    { Vc_node.me = i;
      cfg;
      keys = src.Node_source.sv_keys.(i);
      store = src.Node_source.sv_store_for i;
      now = (fun () -> Net.now net);
      election_end = (fun () -> !election_end);
      send_vc;
      reply;
      send_bb;
      rng =
        Drbg.create
          ~seed:
            (if gen = 0 then Printf.sprintf "vc-rng|%s|%d" p.seed i
             else Printf.sprintf "vc-rng|%s|%d|g%d" p.seed i gen);
      consensus_coin = p.coin;
      verify_share_tags = src.Node_source.sv_verify_share_tags;
      verify_tag = None;
      durable = device_of vc_backing.(i) }
  in
  (* Boot (or cold-restart) collector [i] from its device, as its next
     generation. *)
  let vc_generation = Array.make cfg.Types.nv (-1) in
  let boot_vc i =
    vc_generation.(i) <- vc_generation.(i) + 1;
    let env = make_vc_env ~gen:vc_generation.(i) i in
    let node = Vc_node.create env in
    vc_nodes.(i) <- Some node;
    (* the adversary shares the node's store and keys (a Byzantine
       insider holds genuine credentials) and sends through the same
       transform-aware path *)
    adversaries.(i) <-
      Option.map
        (fun behavior ->
           Adversary.create ~behavior ~me:i ~cfg ~keys:env.Vc_node.keys
             ~store:env.Vc_node.store
             ~rng:(Drbg.create ~seed:(Printf.sprintf "adv-rng|%s|%d" p.seed i))
             ~send_vc:env.Vc_node.send_vc)
        (byz i);
    (* a node that slept through the election-end kick enters VSC now *)
    if p.run_vsc && !election_end <> infinity
       && Vc_node.phase node = Vc_node.Voting then
      Vc_node.start_vote_set_consensus node
  in
  for i = 0 to cfg.Types.nv - 1 do
    boot_vc i
  done;

  (* --- full-mode trustees --- *)
  let trustee_objs : Trustee.t option array = Array.make cfg.Types.nt None in
  let deliver_trustee ~dst (ex : Trustee.exchange) =
    Net.send net ~src:trustee_net.(ex.Trustee.ex_from) ~dst:trustee_net.(dst)
      ~size:(64 * List.length ex.Trustee.ex_entries) ~cost:0.0005
      (fun () ->
         match trustee_objs.(dst) with
         | Some tr -> Trustee.on_exchange tr ex
         | None -> ())
  in
  let post_bb trustee payload =
    (* read the slot at delivery time: a board may have been
       cold-restarted between send and arrival *)
    for dst = 0 to cfg.Types.nb - 1 do
      Net.send net ~src:trustee_net.(trustee) ~dst:bb_net.(dst)
        ~size:(Trustee_payload.size payload) ~cost:0.001
        (fun () ->
           match bb_arr.(dst) with
           | Some bb -> Bb_node.on_trustee_post bb ~trustee payload
           | None -> ())
    done
  in
  (* Boot (or cold-restart) trustee [i] from its device. *)
  let boot_trustee i =
    match src.Node_source.sv_trustees with
    | None -> ()
    | Some (trustee_keys, trustee_init_for) ->
      trustee_objs.(i) <-
        Some
          (* lint: allow secret-taint — journal replay compares trustee indices and share x-coordinates, never secret share bytes *)
          (Trustee.create
             { Trustee.me = i; cfg; gctx = Dd_group.Group_ctx.default ();
               init = trustee_init_for i;
               keys = trustee_keys.(i);
               send_trustee = deliver_trustee;
               post_bb = post_bb i;
               durable = device_of trustee_backing.(i) })
  in
  for i = 0 to cfg.Types.nt - 1 do
    boot_trustee i
  done;
  (match src.Node_source.sv_trustees with
   | None ->
     (* modeled publish phase: charged from the cost model *)
     start_trustees_full :=
       (fun () ->
          let m = cfg.Types.m_options in
          (* per used ballot: reconstruct the shared prover state, finish
             m positions x m OR rows, and sum m opening-share coordinates *)
          let per_ballot =
            p.costs.Cost_model.zk_state_reconstruct
            +. (float_of_int (m * m) *. p.costs.Cost_model.zk_finalize_row)
            +. (float_of_int m *. p.costs.Cost_model.share_sum)
          in
          let per_trustee = float_of_int !n_cast *. per_ballot in
          let done_count = ref 0 in
          Array.iter
            (fun tn ->
               Net.exec net ~dst:tn ~cost:per_trustee
                 (fun () ->
                    incr done_count;
                    if !done_count >= cfg.Types.ht && phases.t_published = 0. then
                      phases.t_published <- Net.now net +. 0.002))
            trustee_net)
   | Some _ ->
     let rec trustee_kickoff attempts () =
       (* the BB majority may still be reconstructing msk / opening
          codes: poll until the read succeeds, as a real reader would *)
       match Bb_reader.voted_positions ~cfg (live_bbs ()) with
       | Bb_reader.Agreed voted ->
         Array.iteri
           (fun i tn ->
              Net.exec net ~dst:tn ~cost:0.005
                (fun () ->
                   match trustee_objs.(i) with
                   | Some tr -> Trustee.on_election_data tr ~voted
                   | None -> ()))
           trustee_net
       | Bb_reader.No_majority ->
         if attempts < 200 then
           Engine.schedule_after engine ~delay:0.05 (trustee_kickoff (attempts + 1))
     in
     start_trustees_full := trustee_kickoff 0);

  (* kick off the clients, staggered like ramping load generators *)
  Array.iteri
    (fun c _ ->
       Engine.schedule_at engine ~at:(0.001 +. (0.0001 *. float_of_int c))
         (fun () -> Voter.Pool.start pool c))
    client_net;
  (* fixed voting hours, if requested *)
  (match p.end_after with
   | Some t -> Engine.schedule_at engine ~at:t end_election
   | None -> ());

  (* --- cold restarts -------------------------------------------------
     With durability on, a [Crash { recover = Some _ }] of a protocol
     node is a power loss: at the crash instant the node object is
     discarded and the device's unsynced tail is torn at a
     DRBG-sampled byte (possibly mid-frame); at the recovery instant
     the node boots again from the device alone, through the same boot
     function as at the start. Without durability the legacy
     warm-crash semantics (Net-level message loss only) are
     unchanged. *)
  if durability then begin
    List.iter
      (fun (node, at, recover) ->
         let nv = cfg.Types.nv and nb = cfg.Types.nb and nt = cfg.Types.nt in
         let is_vc = node < nv in
         let is_bb = node >= nv && node < nv + nb in
         let is_trustee = node >= nv + nb && node < nv + nb + nt in
         let byzantine_vc = is_vc && byz node <> None in
         if (is_vc || is_bb || is_trustee) && not byzantine_vc then begin
           let backing =
             if is_vc then vc_backing.(node)
             else if is_bb then bb_backing.(node - nv)
             else trustee_backing.(node - nv - nb)
           in
           match backing with
           | None -> ()   (* modeled BB/trustee: nothing to restart *)
           | Some backing ->
             (* power loss: drop the node object and tear the unsynced
                tail at a DRBG-sampled byte *)
             Engine.schedule_at engine ~at
               (fun () ->
                  let tail = String.length (Mem_device.unsynced_log backing) in
                  Mem_device.crash
                    ~keep:(Drbg.int (Engine.rng engine) (tail + 1)) backing;
                  if is_vc then vc_nodes.(node) <- None
                  else if is_bb then bb_arr.(node - nv) <- None
                  else trustee_objs.(node - nv - nb) <- None);
             match recover with
             | None -> ()
             | Some at_recover ->
               Engine.schedule_at engine ~at:at_recover
                 (fun () ->
                    if is_vc then boot_vc node
                    else if is_bb then boot_bb (node - nv)
                    else boot_trustee (node - nv - nb))
         end)
      crash_specs
  end;

  (* run everything *)
  let _, run_outcome = Engine.run ~until:max_sim_time engine in

  (* --- results --- *)
  let tally =
    match live_bbs () with
    | [] ->
      (* modeled: ground truth from the agreed set *)
      (match !model_final with
       | None -> None
       | Some set ->
         let t = Array.make cfg.Types.m_options 0 in
         List.iter
           (fun (serial, code) ->
              let ballot = src.Node_source.sv_ballot_for serial in
              List.iter
                (fun part ->
                   Array.iteri
                     (fun choice (line : Types.ballot_line) ->
                        if Dd_crypto.Ct.equal line.Types.vote_code code then
                          t.(choice) <- t.(choice) + 1)
                     (Types.ballot_part ballot part).Types.lines)
                [ Types.A; Types.B ])
           set;
         Some t)
    | nodes ->
      (match Bb_reader.tally ~cfg nodes with
       | Bb_reader.Agreed t -> Some t
       | Bb_reader.No_majority -> None)
  in
  phases.t_first_submit <- Voter.Pool.first_submit pool;
  phases.t_last_receipt <- Voter.Pool.last_receipt pool;
  let receipts_ok = Voter.Pool.receipts_ok pool in
  let vote_duration =
    if phases.t_last_receipt > phases.t_first_submit then
      phases.t_last_receipt -. phases.t_first_submit
    else 1.
  in
  { latencies = Voter.Pool.latencies pool;
    receipts_ok;
    receipts_bad = Voter.Pool.receipts_bad pool;
    rejections = Voter.Pool.rejections pool;
    exhausted = Voter.Pool.exhausted pool;
    phases;
    throughput = Stats.throughput ~completed:receipts_ok ~duration:vote_duration;
    tally;
    expected_tally = expected_tally cfg p.votes;
    successes = Voter.Pool.successes pool;
    attempt_counts = Voter.Pool.attempt_counts pool;
    messages = Net.messages_sent net;
    bytes = Net.bytes_sent net;
    bb_nodes = live_bbs ();
    devices =
      (let tag pre arr =
         Array.to_list arr
         |> List.mapi (fun i b ->
             Option.map (fun b -> (Printf.sprintf "%s%d" pre i, b)) b)
         |> List.filter_map Fun.id
       in
       tag "vc" vc_backing @ tag "bb" bb_backing @ tag "trustee" trustee_backing);
    vc_submit_sets = !honest_submits;
    timed_out = (match run_outcome with `Paused -> true | `Drained -> false);
    dropped = Net.messages_dropped net;
    ucert_conflicts =
      (let acc = ref [] in
       Array.iteri
         (fun i node_opt ->
            match node_opt, byz i with
            | Some node, None ->
              List.iter
                (fun c -> if not (List.mem c !acc) then acc := c :: !acc)
                (Vc_node.ucert_conflicts node)
            | Some _, Some _ | None, _ -> ())
         vc_nodes;
       !acc) }
