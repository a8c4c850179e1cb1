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
}

let run ?(params = default_params) ~conn_for ~step ~ballot_for ~nv ~votes () =
  let links : (int * int, Frame.link) Hashtbl.t = Hashtbl.create 64 in
  let link_of ~client ~node =
    match Hashtbl.find_opt links (client, node) with
    | Some l -> l
    | None ->
      let l = Frame.link (conn_for ~client ~node) in
      Hashtbl.replace links (client, node) l;
      l
  in
  let finished = ref false in
  (* closed loop: no timers, so patience is never armed and a backoff
     wait restarts at once — every voter draw still happens *)
  let pool =
    Pool.create ~seed:params.lg_seed ~clients:params.lg_clients ~nv ~ballot_for
      { Pool.send =
          (fun ~client ~node ~req ~serial ~vote_code ->
             ignore
               (Frame.queue (link_of ~client ~node)
                  (Mux.encode (Dd_group.Group_ctx.default ())
                     (Mux.Client_vote { channel = client; req; serial; vote_code }))
                : int));
        arm_patience = (fun ~delay:_ _ -> ());
        wait = (fun ~delay:_ k -> k ());
        now = (fun () -> 0.);
        finished = (fun () -> finished := true) }
      votes
  in
  (* a reply counts only for the client whose link carried it *)
  let on_frame client payload =
    match Mux.decode (Dd_group.Group_ctx.default ()) payload with
    | Some (Mux.Client_reply { channel = _; req; outcome }) ->
      Pool.on_reply pool ~client ~req outcome
    | Some _ | None -> ()
  in
  for c = 0 to Pool.clients pool - 1 do
    Pool.start pool c
  done;
  let steps = ref 0 in
  let stalled = ref 0 in
  while (not !finished) && !steps < params.lg_max_steps && !stalled < 64 do
    incr steps;
    (* snapshot: replies can open new links mid-pump *)
    let snapshot = Hashtbl.fold (fun key l acc -> (key, l) :: acc) links [] in
    List.iter (fun (_, l) -> ignore (Frame.flush l : int)) snapshot;
    let server_work = step () in
    let replies =
      List.fold_left (fun acc ((client, _), l) -> acc + snd (Frame.pump l (on_frame client)))
        0 snapshot
    in
    if server_work = 0 && replies = 0 then incr stalled else stalled := 0
  done;
  { receipts_ok = Pool.receipts_ok pool;
    receipts_bad = Pool.receipts_bad pool;
    rejections = Pool.rejections pool;
    exhausted = Pool.exhausted pool;
    lost = Pool.in_flight pool;
    successes = Pool.successes pool }
