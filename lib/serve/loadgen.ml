module Types = Ddemos.Types
module Pool = Ddemos.Voter.Pool

type params = {
  lg_clients : int;
  lg_seed : string;
  lg_max_steps : int;
}

let default_params = { lg_clients = 40; lg_seed = "election-seed"; lg_max_steps = 1_000_000 }

type vote_intent = Pool.intent = { serial : int; choice : int }

type result = {
  receipts_ok : int;
  receipts_bad : int;
  rejections : int;
  exhausted : int;
  lost : int;
  successes : (int * string) list;
  steps : int;
}

(* A client's connection to one node, with its own frame decoder and
   an outbound buffer so a transport's partial accept never tears a
   frame (sockets accept what their kernel buffer holds). *)
type chan = {
  ch_client : int;
  ch_conn : Transport.conn;
  ch_dec : Frame.decoder;
  ch_out : Buffer.t;
  mutable ch_opos : int;         (* sent prefix of [ch_out] *)
}

let flush_chan ch =
  let len = Buffer.length ch.ch_out - ch.ch_opos in
  if len > 0 then begin
    let data = Buffer.contents ch.ch_out in
    let k = ch.ch_conn.Transport.send data ~pos:ch.ch_opos ~len in
    ch.ch_opos <- ch.ch_opos + k;
    if ch.ch_opos >= Buffer.length ch.ch_out then begin
      Buffer.clear ch.ch_out;
      ch.ch_opos <- 0
    end
  end

(* Drain one channel into the pool, as replies to the client that owns
   the connection; returns the replies processed. *)
let pump_chan pool ch =
  let n = ref 0 in
  let rec feed () =
    let bytes = ch.ch_conn.Transport.recv () in
    if bytes <> "" then begin
      Frame.feed ch.ch_dec bytes;
      feed ()
    end
  in
  feed ();
  let rec pop () =
    match Frame.pop ch.ch_dec with
    | None -> ()
    | Some payload ->
      (match Mux.decode (Dd_group.Group_ctx.default ()) payload with
       | Some (Mux.Client_reply { channel = _; req; outcome }) ->
         incr n;
         Pool.on_reply pool ~client:ch.ch_client ~req outcome
       | Some _ | None -> ());
      pop ()
  in
  pop ();
  !n

let run ?(params = default_params) ~conn_for ~step ~ballot_for ~nv ~votes () =
  let chans : (int * int, chan) Hashtbl.t = Hashtbl.create 64 in
  let chan_of ~client ~node =
    match Hashtbl.find_opt chans (client, node) with
    | Some ch -> ch
    | None ->
      let ch =
        { ch_client = client; ch_conn = conn_for ~client ~node; ch_dec = Frame.create ();
          ch_out = Buffer.create 256; ch_opos = 0 }
      in
      Hashtbl.replace chans (client, node) ch;
      ch
  in
  let finished = ref false in
  (* closed loop: no timers, so patience is never armed and a backoff
     wait restarts at once — every voter draw still happens *)
  let pool =
    Pool.create ~seed:params.lg_seed ~clients:params.lg_clients ~nv ~ballot_for
      { Pool.send =
          (fun ~client ~node ~req ~serial ~vote_code ->
             Buffer.add_string (chan_of ~client ~node).ch_out
               (Frame.encode
                  (Mux.encode (Dd_group.Group_ctx.default ())
                     (Mux.Client_vote { channel = client; req; serial; vote_code }))));
        arm_patience = (fun ~delay:_ _ -> ());
        wait = (fun ~delay:_ k -> k ());
        now = (fun () -> 0.);
        finished = (fun () -> finished := true) }
      votes
  in
  for c = 0 to Pool.clients pool - 1 do
    Pool.start pool c
  done;
  let steps = ref 0 in
  let stalled = ref 0 in
  while (not !finished) && !steps < params.lg_max_steps && !stalled < 64 do
    incr steps;
    (* snapshot: replies can open new channels mid-pump *)
    let snapshot = Hashtbl.fold (fun _ ch acc -> ch :: acc) chans [] in
    List.iter flush_chan snapshot;
    let server_work = step () in
    let replies = List.fold_left (fun acc ch -> acc + pump_chan pool ch) 0 snapshot in
    if server_work = 0 && replies = 0 then incr stalled else stalled := 0
  done;
  { receipts_ok = Pool.receipts_ok pool;
    receipts_bad = Pool.receipts_bad pool;
    rejections = Pool.rejections pool;
    exhausted = Pool.exhausted pool;
    lost = Pool.in_flight pool;
    successes = Pool.successes pool;
    steps = !steps }
