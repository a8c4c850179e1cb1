module Types = Ddemos.Types
module Messages = Ddemos.Messages
module Auth = Ddemos.Auth
module Vc_node = Ddemos.Vc_node
module Bb_node = Ddemos.Bb_node
module Bb_reader = Ddemos.Bb_reader
module Guarantees = Ddemos.Guarantees
module Ballot_store = Ddemos.Ballot_store
module Ea = Ddemos.Ea
module Board = Ddemos.Board
module Drbg = Dd_crypto.Drbg

(* messages a node's mailbox holds before shedding *)
let mailbox_cap = 4096

(* messages a node drains per tick *)
let batch_max = 256

(* outbound bytes buffered per client connection before it is shed *)
let out_cap = 1 lsl 22

(* channel ids one client connection may name before it is shed *)
let max_channels = 4096

type source = Ddemos.Node_source.t = {
  sv_cfg : Types.config;
  sv_keys : Auth.keys array;
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t)) option;
  sv_trustees : (Auth.keys array * (int -> Ea.trustee_init)) option;
  sv_ballot_for : int -> Types.ballot;
  sv_seed : string;
}

let source_prf = Ddemos.Node_source.prf
let source_of_layout = Ddemos.Node_source.of_layout

(* --- connections -------------------------------------------------------- *)

type role =
  | Client of int                    (* client conn feeding VC node [n] *)
  | Link_vc of int                   (* peer link delivering to VC [n] *)
  | Link_bb of int                   (* VC->BB link delivering to BB [n] *)

type conn_state = {
  k_id : int;
  k_role : role;
  k_link : Frame.link;
  k_parts : Mux.assembler;
  mutable k_channels : int;                     (* channel ids interned *)
}

type staged =
  | S_vc of int * Messages.vc_msg
  | S_bb of int * Messages.bb_msg
  | S_client of int * int * Types.vote_outcome   (* client, req *)

type clock = { mutable cnow : float; mutable cend : float }

type stats = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable malformed : int;
  mutable votes_shed : int;
  mutable peer_dropped : int;
  mutable conns_shed : int;
  mutable steps : int;
}

type t = {
  batching : bool;
  src : source;
  link_max : int Lazy.t;                       (* longest message on a peer link *)
  nv : int;
  nb : int;
  clock : clock;
  mutable vc : Vc_node.t array;
  mutable bb : Bb_node.t array;
  vc_mbox : Messages.vc_msg Mailbox.t array;
  bb_mbox : Messages.bb_msg Mailbox.t array;
  batchers : Batcher.t array;
  staging : staged list ref array;             (* per VC node, reversed *)
  mutable conns : conn_state list;             (* every open conn, newest first *)
  link_vc : conn_state option array array;     (* [i].(j): node i's endpoint to j *)
  link_bb : conn_state option array array;     (* [i].(j): VC i's endpoint to BB j *)
  clients : (int, conn_state * int) Hashtbl.t; (* client id -> conn, channel *)
  client_ids : (int * int, int) Hashtbl.t;     (* conn id, channel -> client id *)
  mutable next_client : int;
  mutable next_conn : int;
  mutable on_link : src:int -> dst:int -> Messages.vc_msg -> unit;
  st : stats;
}

let gctx (_ : t) = Dd_group.Group_ctx.default ()
let config t = t.src.sv_cfg
let stats t = t.st
let vc_node t i = t.vc.(i)
let bb_node t j = if j >= 0 && j < t.nb then Some t.bb.(j) else None
let observe_links t f = t.on_link <- f

let batch_stats t =
  let agg = { Batcher.batch_calls = 0; batched = 0; serial = 0; cache_hits = 0 } in
  Array.iter
    (fun b ->
       let s = Batcher.stats b in
       agg.Batcher.batch_calls <- agg.Batcher.batch_calls + s.Batcher.batch_calls;
       agg.Batcher.batched <- agg.Batcher.batched + s.Batcher.batched;
       agg.Batcher.serial <- agg.Batcher.serial + s.Batcher.serial;
       agg.Batcher.cache_hits <- agg.Batcher.cache_hits + s.Batcher.cache_hits)
    t.batchers;
  agg

let enqueue_out t conn payload =
  t.st.frames_out <- t.st.frames_out + Frame.queue conn.k_link payload

let register_conn t ~role conn =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  (* Clients send no pieces: on their connections any piece that
     carries a byte is malformed. *)
  let max_message () =
    match role with
    | Client _ -> 0
    | Link_vc _ | Link_bb _ -> Lazy.force t.link_max
  in
  let cs =
    { k_id = id; k_role = role; k_link = Frame.link conn;
      k_parts = Mux.assembler ~max_message; k_channels = 0 }
  in
  t.conns <- cs :: t.conns;
  cs

(* --- construction ------------------------------------------------------- *)

(* The longest message an honest peer sends: one entry per ballot, each
   a serial, a vote code and a UCERT of every collector's endorsement,
   as a RECOVER_RESPONSE carries them. Pieces past it are refused; it
   costs a signature, so it is worked out on the first piece. *)
let link_max src =
  let cfg = src.sv_cfg in
  let tag = Auth.sign ~rng:(Drbg.create ~seed:"link_max") src.sv_keys.(0) "" in
  let ucert =
    { Messages.u_serial = 0; u_code = "";
      endorsements = List.init cfg.Types.nv (fun i -> (i, tag)) }
  in
  let entry = (cfg.Types.n_voters, String.make Types.vote_code_bytes '\000', ucert) in
  let one =
    Messages.encode_vc_msg (Messages.Recover_response { sender = cfg.Types.nv; entries = [ entry ] })
  in
  Frame.max_frame_default + (cfg.Types.n_voters * String.length one)

let make_env t i : Vc_node.env =
  { Vc_node.me = i;
    cfg = t.src.sv_cfg;
    keys = t.src.sv_keys.(i);
    store = t.src.sv_store_for i;
    now = (fun () -> t.clock.cnow);
    election_end = (fun () -> t.clock.cend);
    send_vc = (fun ~dst msg -> t.staging.(i) := S_vc (dst, msg) :: !(t.staging.(i)));
    reply =
      (fun ~client ~req outcome ->
         t.staging.(i) := S_client (client, req, outcome) :: !(t.staging.(i)));
    send_bb = (fun ~dst msg -> t.staging.(i) := S_bb (dst, msg) :: !(t.staging.(i)));
    rng = Drbg.create ~seed:(Printf.sprintf "vc-rng|%s|%d" t.src.sv_seed i);
    consensus_coin = Dd_consensus.Binary_batch.Local;
    verify_tag =
      (if t.batching then Some (Batcher.verify t.batchers.(i)) else None);
    durable = None }

let create ?(batching = true) src =
  let cfg = src.sv_cfg in
  let nv = cfg.Types.nv in
  let nb = match src.sv_bb with None -> 0 | Some _ -> cfg.Types.nb in
  let t =
    { batching;
      src;
      link_max = lazy (link_max src);
      nv;
      nb;
      clock = { cnow = 1.0; cend = infinity };
      vc = [||];
      bb = [||];
      vc_mbox = Array.init nv (fun _ -> Mailbox.create ~capacity:mailbox_cap);
      bb_mbox = Array.init nb (fun _ -> Mailbox.create ~capacity:mailbox_cap);
      batchers =
        Array.init nv (fun i -> Batcher.create ~keys:src.sv_keys.(i));
      staging = Array.init nv (fun _ -> ref []);
      conns = [];
      link_vc = Array.init nv (fun _ -> Array.make nv None);
      link_bb = Array.init nv (fun _ -> Array.make nb None);
      clients = Hashtbl.create 256;
      client_ids = Hashtbl.create 256;
      next_client = 0;
      next_conn = 0;
      on_link = (fun ~src:_ ~dst:_ _ -> ());
      st =
        { frames_in = 0; frames_out = 0; bytes_in = 0; bytes_out = 0;
          malformed = 0; votes_shed = 0; peer_dropped = 0; conns_shed = 0;
          steps = 0 } }
  in
  t.vc <- Array.init nv (fun i -> Vc_node.create (make_env t i));
  (* peer links: a real framed pipe per unordered VC pair *)
  for i = 0 to nv - 1 do
    for j = i + 1 to nv - 1 do
      let ei, ej = Pipe.pair () in
      t.link_vc.(i).(j) <- Some (register_conn t ~role:(Link_vc i) ei);
      t.link_vc.(j).(i) <- Some (register_conn t ~role:(Link_vc j) ej)
    done
  done;
  (* BB nodes and the VC->BB links *)
  (match src.sv_bb with
   | None -> ()
   | Some (init, board_for) ->
     t.bb <-
       Array.init nb (fun j ->
           Bb_node.create ~board:(board_for j) ~cfg ~init ~me:j ());
     for i = 0 to nv - 1 do
       for j = 0 to nb - 1 do
         let evc, ebb = Pipe.pair () in
         t.link_bb.(i).(j) <- Some (register_conn t ~role:(Link_vc i) evc);
         (* the VC-side endpoint never receives (BB nodes do not send);
            the BB-side endpoint delivers to BB j *)
         ignore (register_conn t ~role:(Link_bb j) ebb)
       done
     done);
  t

let client_conn ?recv_chunk t ~node =
  let server_end, client_end = Pipe.pair ?recv_chunk () in
  ignore (register_conn t ~role:(Client node) server_end);
  client_end

let accept t ~node conn = ignore (register_conn t ~role:(Client node) conn)

(* --- client identity ---------------------------------------------------- *)

(* Shedding closes a client connection (so it leaves the tick) and counts it. *)
let shed_conn t conn =
  Frame.close conn.k_link;
  t.st.conns_shed <- t.st.conns_shed + 1

(* The client id of a connection's channel; a connection that names a
   new channel past [max_channels] is shed instead. *)
let intern_client t conn channel =
  match Hashtbl.find_opt t.client_ids (conn.k_id, channel) with
  | Some c -> Some c
  | None when conn.k_channels >= max_channels -> shed_conn t conn; None
  | None ->
    let c = t.next_client in
    t.next_client <- c + 1;
    conn.k_channels <- conn.k_channels + 1;
    Hashtbl.replace t.client_ids (conn.k_id, channel) c;
    Hashtbl.replace t.clients c (conn, channel);
    Some c

(* --- tick --------------------------------------------------------------- *)

let shed_vote t conn ~channel ~req =
  t.st.votes_shed <- t.st.votes_shed + 1;
  enqueue_out t conn
    (Mux.encode (gctx t)
       (Mux.Client_reply { channel; req; outcome = Types.Rejected "server overloaded" }))

let deliver t mbox m =
  if not (Mailbox.push mbox m) then t.st.peer_dropped <- t.st.peer_dropped + 1

(* A batch's messages reach the mailbox in order, so every node sees
   the message sequence it would see from one frame per message. *)
let route t conn msg =
  match conn.k_role, msg with
  | Client node, Mux.Client_vote { channel; req; serial; vote_code } ->
    (match intern_client t conn channel with
     | Some client ->
       let m = Messages.Vote { serial; vote_code; client; req } in
       if not (Mailbox.push t.vc_mbox.(node) m) then shed_vote t conn ~channel ~req
     | None -> ())
  | Link_vc node, Mux.Vc ms -> List.iter (deliver t t.vc_mbox.(node)) ms
  | Link_bb node, Mux.Bb ms -> List.iter (deliver t t.bb_mbox.(node)) ms
  | (Client _ | Link_vc _ | Link_bb _), _ ->
    (* a frame kind this connection's role must not produce *)
    t.st.malformed <- t.st.malformed + 1

let pump_conn t conn =
  let bytes, frames =
    Frame.pump conn.k_link (fun payload ->
        match Mux.receive conn.k_parts payload with
        | Mux.Message msg -> route t conn msg
        | Mux.Piece -> ()
        | Mux.Malformed -> t.st.malformed <- t.st.malformed + 1)
  in
  t.st.bytes_in <- t.st.bytes_in + bytes;
  t.st.frames_in <- t.st.frames_in + frames;
  (* every link in [t.conns] is open when the tick starts, so this
     counts a poisoned decoder once *)
  if Frame.poisoned conn.k_link then t.st.malformed <- t.st.malformed + 1;
  frames

let process_vc t i =
  let msgs = Mailbox.drain ~max:batch_max t.vc_mbox.(i) in
  match msgs with
  | [] -> 0
  | _ ->
    if t.batching then
      Batcher.preverify t.batchers.(i) (List.concat_map (Vc_node.obligations t.vc.(i)) msgs);
    List.iter (fun m -> Vc_node.handle t.vc.(i) m) msgs;
    List.length msgs

let process_bb t j =
  let msgs = Mailbox.drain ~max:batch_max t.bb_mbox.(j) in
  List.iter (fun m -> Bb_node.handle t.bb.(j) m) msgs;
  List.length msgs

(* Each link's staged messages leave as one frame (more only past
   [Frame.max_frame_default], a lone message past it in pieces); client
   replies stay one frame each. *)
let flush_staged t =
  let send conn msg =
    match conn with
    | Some conn ->
      List.iter (enqueue_out t conn)
        (Mux.encode_split ~max_frame:Frame.max_frame_default msg)
    | None -> ()
  in
  for i = 0 to t.nv - 1 do
    let staged = List.rev !(t.staging.(i)) in
    t.staging.(i) := [];
    let to_vc = Array.make t.nv [] and to_bb = Array.make t.nb [] in
    List.iter
      (fun s ->
         match s with
         | S_vc (dst, m) ->
           t.on_link ~src:i ~dst m;
           to_vc.(dst) <- m :: to_vc.(dst)
         | S_bb (dst, m) -> if dst >= 0 && dst < t.nb then to_bb.(dst) <- m :: to_bb.(dst)
         | S_client (client, req, outcome) ->
           (match Hashtbl.find_opt t.clients client with
            | Some (conn, channel) ->
              enqueue_out t conn (Mux.encode (gctx t) (Mux.Client_reply { channel; req; outcome }))
            | None -> ()))
      staged;
    Array.iteri
      (fun dst ms -> if ms <> [] then send t.link_vc.(i).(dst) (Mux.Vc (List.rev ms)))
      to_vc;
    Array.iteri
      (fun dst ms -> if ms <> [] then send t.link_bb.(i).(dst) (Mux.Bb (List.rev ms)))
      to_bb
  done

(* A closed link leaves the tick: its connection goes from [t.conns],
   its clients go, and replies staged for them are discarded. Client
   tables left empty shrink back to their initial size. *)
let prune t =
  let live conn = Frame.is_open conn.k_link in
  if not (List.for_all live t.conns) then begin
    t.conns <- List.filter live t.conns;
    Hashtbl.filter_map_inplace
      (fun _ ((conn, _) as c) -> if live conn then Some c else None) t.clients;
    Hashtbl.filter_map_inplace
      (fun _ client -> if Hashtbl.mem t.clients client then Some client else None)
      t.client_ids;
    if Hashtbl.length t.clients = 0 then begin
      Hashtbl.reset t.clients;
      Hashtbl.reset t.client_ids
    end
  end

(* One flush per connection per tick, then the closed links go. *)
let write_out t =
  List.iter
    (fun conn ->
       t.st.bytes_out <- t.st.bytes_out + Frame.flush conn.k_link;
       (* slow-reader shedding: a client that will not drain its
          replies is disconnected, never buffered without bound *)
       match conn.k_role with
       | Client _ when Frame.backlog conn.k_link > out_cap -> shed_conn t conn
       | _ -> ())
    t.conns;
  prune t

let step t =
  t.st.steps <- t.st.steps + 1;
  t.clock.cnow <- t.clock.cnow +. 1e-6;
  let pumped = List.fold_left (fun acc c -> acc + pump_conn t c) 0 t.conns in
  let processed = ref 0 in
  for i = 0 to t.nv - 1 do
    processed := !processed + process_vc t i
  done;
  for j = 0 to t.nb - 1 do
    processed := !processed + process_bb t j
  done;
  flush_staged t;
  write_out t;
  pumped + !processed

let run_until_idle t =
  let total = ref 0 in
  let continue = ref true in
  let steps = ref 0 in
  while !continue && !steps < 100_000 do
    incr steps;
    let n = step t in
    total := !total + n;
    if n = 0 then continue := false
  done;
  !total

let end_election t =
  t.clock.cend <- t.clock.cnow;
  for i = 0 to t.nv - 1 do
    Vc_node.start_vote_set_consensus t.vc.(i)
  done;
  flush_staged t;
  write_out t

let guarantees t ~votes (r : Loadgen.result) =
  let agreed =
    if t.nb = 0 then List.find_map Vc_node.agreed_set (Array.to_list t.vc)
    else
      match Bb_reader.final_set ~cfg:t.src.sv_cfg (Array.to_list t.bb) with
      | Bb_reader.Agreed set -> Some set
      | Bb_reader.No_majority -> None
  in
  List.concat
    [ Guarantees.liveness
        ~intents:(List.map (fun v -> (v.Loadgen.serial, v.Loadgen.choice)) votes)
        ~receipts_ok:r.Loadgen.receipts_ok ~exhausted:r.Loadgen.exhausted
        ~timed_out:(r.Loadgen.lost > 0);
      Guarantees.ucert_uniqueness
        (List.sort_uniq compare (List.concat_map Vc_node.ucert_conflicts (Array.to_list t.vc)));
      Guarantees.vote_set_agreement ~required:t.nv
        (List.filter_map
           (fun i -> Option.map (fun set -> (i, set)) (Vc_node.agreed_set t.vc.(i)))
           (List.init t.nv Fun.id));
      Guarantees.receipt_contract ~receipts_bad:r.Loadgen.receipts_bad
        ~successes:r.Loadgen.successes ~agreed ]
