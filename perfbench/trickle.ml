(* Open-loop voters for the serving runtime.

   Independent voters arrive as a Poisson process drawn from the seeded
   DRBG, whatever the cluster is doing, and each vote is timed from
   when it was due: a tick that runs long is charged to every vote it
   delays. The driver uses only public Runtime/Frame/Mux/Voter
   functions — one pipe per VC node, one Mux channel per voter — and
   leaves Loadgen (the closed loop) as it is. *)

module Types = Ddemos.Types
module Voter = Ddemos.Voter
module Runtime = Dd_serve.Runtime
module Frame = Dd_serve.Frame
module Mux = Dd_serve.Mux
module Transport = Dd_serve.Transport
module Drbg = Dd_crypto.Drbg

type arrival = { serial : int; choice : int; due : float (* s after the start *) }

(* [n] voters arriving at [rate] per second: exponential gaps. *)
let arrivals ~seed ~rate ~m n =
  let rng = Drbg.create ~seed:("arrivals|" ^ seed) in
  let scale = float_of_int (1 lsl 30) in
  let clock = ref 0. in
  Array.init n (fun serial ->
      (* uniform in (0, 1], so the logarithm is finite *)
      let u = float_of_int (1 + Drbg.int rng (1 lsl 30)) /. scale in
      clock := !clock -. (log u /. rate);
      { serial; choice = Drbg.int rng m; due = !clock })

type result = {
  votes : Probe.vote array;    (* one per arrival *)
  valid : int;                 (* receipts matching the printed ballot *)
  bad : int;                   (* receipts that did not *)
  rejected : int;
  lost : int;                  (* unanswered when the cluster went quiet *)
  cast : (int * string) list;  (* (serial, vote code) of the valid receipts *)
}

(* Submits each arrival at its due time and ticks the cluster through
   [step] while votes are in flight; with none in flight it sleeps
   until the next arrival, inside [idle]. *)
let run ?(idle = fun sleep -> sleep ()) rt ~step ~ballot_for ~seed arrivals =
  let gctx = Runtime.gctx rt in
  let nv = (Runtime.config rt).Types.nv in
  let conns = Array.init nv (fun node -> Runtime.client_conn rt ~node) in
  let decoders = Array.init nv (fun _ -> Frame.create ()) in
  let outbox = Array.init nv (fun _ -> Buffer.create 1024) in
  let n = Array.length arrivals in
  let start = Trace.now () in
  let votes = Array.map (fun a -> Probe.vote ~serial:a.serial ~due:(start +. a.due)) arrivals in
  let plans = Array.make n None and sent_tick = Array.make n 0 in
  let ticks () = (Runtime.stats rt).Runtime.steps in
  let valid = ref 0 and bad = ref 0 and rejected = ref 0 and inflight = ref 0 in
  let cast = ref [] and unpicked = ref [] in
  let submit i =
    let a = arrivals.(i) in
    let rng = Drbg.create ~seed:(Printf.sprintf "voter|%s|%d" seed a.serial) in
    let plan = Voter.make_plan rng ~ballot:(ballot_for a.serial) ~choice:a.choice in
    let node = Option.value ~default:0 (Voter.pick_node rng ~nv ~blacklist:[]) in
    plans.(i) <- Some plan;
    Frame.encode_into outbox.(node)
      (Mux.encode gctx
         (Mux.Client_vote
            { channel = i; req = i; serial = a.serial; vote_code = Voter.vote_code plan }));
    votes.(i).Probe.v_sent <- Trace.now ();
    sent_tick.(i) <- ticks ();
    unpicked := i :: !unpicked;
    incr inflight
  in
  let flush node =
    let buf = outbox.(node) in
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      let k = Transport.send_string conns.(node) s in
      Buffer.clear buf;
      Buffer.add_substring buf s k (String.length s - k)
    end
  in
  let reply i outcome =
    let v = votes.(i) in
    v.Probe.v_done <- Trace.now ();
    v.Probe.v_ticks <- ticks () - sent_tick.(i);
    decr inflight;
    match outcome, plans.(i) with
    | Types.Receipt r, Some plan when Voter.receipt_valid plan r ->
      v.Probe.v_receipt <- true;
      incr valid;
      cast := (arrivals.(i).serial, Voter.vote_code plan) :: !cast
    | Types.Receipt _, _ -> incr bad
    | Types.Rejected _, _ -> incr rejected
  in
  let pump node =
    let replies = ref 0 in
    let rec feed () =
      let s = conns.(node).Transport.recv () in
      if s <> "" then begin
        Frame.feed decoders.(node) s;
        feed ()
      end
    in
    feed ();
    let rec pop () =
      match Frame.pop decoders.(node) with
      | None -> ()
      | Some payload ->
        (match Mux.decode gctx payload with
         | Some (Mux.Client_reply { req; outcome; _ })
           when req >= 0 && req < n && Float.is_nan votes.(req).Probe.v_done ->
           incr replies;
           reply req outcome
         | Some _ | None -> ());
        pop ()
    in
    pop ();
    !replies
  in
  let next = ref 0 and quiet = ref 0 in
  while (!next < n || !inflight > 0) && !quiet < 64 do
    let now = Trace.now () in
    while !next < n && votes.(!next).Probe.v_due <= now do
      submit !next;
      incr next
    done;
    if !inflight = 0 then begin
      if !next < n then begin
        let gap = votes.(!next).Probe.v_due -. Trace.now () in
        if gap > 0. then idle (fun () -> Unix.sleepf gap)
      end
    end
    else begin
      for node = 0 to nv - 1 do flush node done;
      let tick_start = Trace.now () in
      List.iter (fun i -> votes.(i).Probe.v_picked <- tick_start) !unpicked;
      unpicked := [];
      let work = step () in
      let replies = ref 0 in
      for node = 0 to nv - 1 do replies := !replies + pump node done;
      if work = 0 && !replies = 0 then incr quiet else quiet := 0
    end
  done;
  { votes; valid = !valid; bad = !bad; rejected = !rejected;
    lost = !inflight + (n - !next); cast = List.rev !cast }
