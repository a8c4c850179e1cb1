module Types = Ddemos.Types
module Messages = Ddemos.Messages
module Auth = Ddemos.Auth
module Vc_node = Ddemos.Vc_node
module Bb_node = Ddemos.Bb_node
module Ballot_store = Ddemos.Ballot_store
module Ea = Ddemos.Ea
module Board = Ddemos.Board
module Drbg = Dd_crypto.Drbg

type params = {
  batching : bool;
  min_batch : int;
  mailbox_cap : int;
  batch_max : int;
  out_cap : int;
  max_frame : int;
}

let default_params =
  { batching = true;
    min_batch = 4;
    mailbox_cap = 4096;
    batch_max = 256;
    out_cap = 1 lsl 22;
    max_frame = Frame.max_frame_default }

type source = Ddemos.Node_source.t = {
  sv_cfg : Types.config;
  sv_keys : Auth.keys array;
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t)) option;
  sv_trustees : (Auth.keys array * (int -> Ea.trustee_init)) option;
  sv_ballot_for : int -> Types.ballot;
  sv_verify_share_tags : bool;
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
  k_conn : Transport.conn;
  k_role : role;
  k_dec : Frame.decoder;
  k_out : Buffer.t;                  (* framed bytes not yet sent *)
  mutable k_open : bool;
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
  p : params;
  src : source;
  nv : int;
  nb : int;
  clock : clock;
  mutable vc : Vc_node.t array;
  mutable bb : Bb_node.t array;
  vc_mbox : Messages.vc_msg Mailbox.t array;
  bb_mbox : Messages.bb_msg Mailbox.t array;
  batchers : Batcher.t array;
  staging : staged list ref array;             (* per VC node, reversed *)
  mutable conns : conn_state list;             (* every registered conn *)
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
  Frame.encode_into conn.k_out payload;
  t.st.frames_out <- t.st.frames_out + 1

let register_conn t ~role conn =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let cs =
    { k_id = id; k_conn = conn; k_role = role;
      k_dec = Frame.create ~max_frame:t.p.max_frame ();
      k_out = Buffer.create 256; k_open = true }
  in
  t.conns <- cs :: t.conns;
  cs

(* --- construction ------------------------------------------------------- *)

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
    verify_share_tags = t.src.sv_verify_share_tags;
    verify_tag =
      (if t.p.batching then Some (Batcher.verify t.batchers.(i)) else None);
    durable = None }

let create ?(params = default_params) src =
  let cfg = src.sv_cfg in
  let nv = cfg.Types.nv in
  let nb = match src.sv_bb with None -> 0 | Some _ -> cfg.Types.nb in
  let t =
    { p = params;
      src;
      nv;
      nb;
      clock = { cnow = 1.0; cend = infinity };
      vc = [||];
      bb = [||];
      vc_mbox = Array.init nv (fun _ -> Mailbox.create ~capacity:params.mailbox_cap);
      bb_mbox = Array.init nb (fun _ -> Mailbox.create ~capacity:params.mailbox_cap);
      batchers =
        Array.init nv (fun i ->
            Batcher.create ~min_batch:params.min_batch
              ~keys:src.sv_keys.(i)
              ~election_id:cfg.Types.election_id ~ea_signer:nv
              ~share_tags:src.sv_verify_share_tags ());
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

let intern_client t conn channel =
  match Hashtbl.find_opt t.client_ids (conn.k_id, channel) with
  | Some c -> c
  | None ->
    let c = t.next_client in
    t.next_client <- c + 1;
    Hashtbl.replace t.client_ids (conn.k_id, channel) c;
    Hashtbl.replace t.clients c (conn, channel);
    c

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
    let client = intern_client t conn channel in
    let m = Messages.Vote { serial; vote_code; client; req } in
    if not (Mailbox.push t.vc_mbox.(node) m) then shed_vote t conn ~channel ~req
  | Link_vc node, Mux.Vc ms -> List.iter (deliver t t.vc_mbox.(node)) ms
  | Link_bb node, Mux.Bb ms -> List.iter (deliver t t.bb_mbox.(node)) ms
  | (Client _ | Link_vc _ | Link_bb _), _ ->
    (* a frame kind this connection's role must not produce *)
    t.st.malformed <- t.st.malformed + 1

let pump_conn t conn =
  let processed = ref 0 in
  if conn.k_open then begin
    (* feed chunk by chunk so torn deliveries reach the decoder as-is *)
    let rec feed_all () =
      let s = conn.k_conn.Transport.recv () in
      if s <> "" then begin
        t.st.bytes_in <- t.st.bytes_in + String.length s;
        Frame.feed conn.k_dec s;
        feed_all ()
      end
    in
    feed_all ();
    let rec pop_all () =
      match Frame.pop conn.k_dec with
      | None -> ()
      | Some payload ->
        incr processed;
        t.st.frames_in <- t.st.frames_in + 1;
        (match Mux.decode (gctx t) payload with
         | Some msg -> route t conn msg
         | None -> t.st.malformed <- t.st.malformed + 1);
        pop_all ()
    in
    pop_all ();
    (match Frame.error conn.k_dec with
     | Some _ ->
       t.st.malformed <- t.st.malformed + 1;
       conn.k_open <- false;
       conn.k_conn.Transport.close ()
     | None -> ())
  end;
  !processed

let process_vc t i =
  let msgs = Mailbox.drain ~max:t.p.batch_max t.vc_mbox.(i) in
  match msgs with
  | [] -> 0
  | _ ->
    if t.p.batching then Batcher.preverify t.batchers.(i) msgs;
    List.iter (fun m -> Vc_node.handle t.vc.(i) m) msgs;
    List.length msgs

let process_bb t j =
  let msgs = Mailbox.drain ~max:t.p.batch_max t.bb_mbox.(j) in
  List.iter (fun m -> Bb_node.handle t.bb.(j) m) msgs;
  List.length msgs

(* Each link's staged messages leave as one frame (more only past
   [max_frame]); client replies stay one frame each. *)
let flush_staged t =
  let send conn msg =
    match conn with
    | Some conn when conn.k_open ->
      List.iter (enqueue_out t conn) (Mux.encode_split ~max_frame:t.p.max_frame msg)
    | Some _ | None -> ()
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
            | Some (conn, channel) when conn.k_open ->
              enqueue_out t conn (Mux.encode (gctx t) (Mux.Client_reply { channel; req; outcome }))
            | Some _ | None -> ()))
      staged;
    Array.iteri
      (fun dst ms -> if ms <> [] then send t.link_vc.(i).(dst) (Mux.Vc (List.rev ms)))
      to_vc;
    Array.iteri
      (fun dst ms -> if ms <> [] then send t.link_bb.(i).(dst) (Mux.Bb (List.rev ms)))
      to_bb
  done

(* One [send] per connection per tick; a partial write keeps only the
   unsent tail, so the buffer holds exactly the connection's backlog. *)
let write_out t =
  List.iter
    (fun conn ->
       let out = conn.k_out in
       if conn.k_open && Buffer.length out > 0 then begin
         let data = Buffer.contents out in
         let len = String.length data in
         let k = conn.k_conn.Transport.send data ~pos:0 ~len in
         t.st.bytes_out <- t.st.bytes_out + k;
         Buffer.clear out;
         if k < len then Buffer.add_substring out data k (len - k);
         (* slow-reader shedding: a client that will not drain its
            replies is disconnected, never buffered without bound *)
         (match conn.k_role with
          | Client _ when Buffer.length out > t.p.out_cap ->
            conn.k_open <- false;
            conn.k_conn.Transport.close ();
            Buffer.reset out;
            t.st.conns_shed <- t.st.conns_shed + 1
          | _ -> ())
       end)
    t.conns

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
