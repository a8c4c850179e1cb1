(* Outside-in probes: the benchmark wraps the closure records the
   program accepts from it — storage devices and client connections —
   to count and time what crosses them, without changing the program. *)

module Device = Dd_store.Device
module Transport = Dd_serve.Transport
module Frame = Dd_serve.Frame
module Mux = Dd_serve.Mux
module Types = Ddemos.Types

(* --- storage -------------------------------------------------------------- *)

type io = {
  mutable appends : int;
  mutable bytes_written : int;
  mutable syncs : int;
  mutable reads : int;
  mutable bytes_read : int;
}

let io () = { appends = 0; bytes_written = 0; syncs = 0; reads = 0; bytes_read = 0 }

(* Appends and syncs are timed as "store.append", reads and size probes
   as "store.read". *)
let wrap_device tr io (d : Device.t) : Device.t =
  let read s =
    io.reads <- io.reads + 1;
    io.bytes_read <- io.bytes_read + String.length s;
    s
  in
  { d with
    Device.log_append =
      (fun s ->
         io.appends <- io.appends + 1;
         io.bytes_written <- io.bytes_written + String.length s;
         Trace.span tr "store.append" (fun () -> d.Device.log_append s));
    log_sync =
      (fun () ->
         io.syncs <- io.syncs + 1;
         Trace.span tr "store.append" d.Device.log_sync);
    log_contents = (fun () -> read (Trace.span tr "store.read" d.Device.log_contents));
    log_size = (fun () -> Trace.span tr "store.read" d.Device.log_size);
    log_read =
      (fun ~pos ~len ->
         read (Trace.span tr "store.read" (fun () -> d.Device.log_read ~pos ~len))) }

(* --- per-vote timing ------------------------------------------------------ *)

(* One vote submission, in absolute wall-clock seconds. [v_due]: when
   the voter was ready (open loop: its arrival; closed loop: the reply
   to its client's previous vote); [v_sent]: when its frame went to the
   transport; [v_picked]: the start of the first tick after that;
   [v_done]: when the reply was read (nan until then). *)
type vote = {
  v_serial : int;
  v_due : float;
  mutable v_sent : float;
  mutable v_picked : float;
  mutable v_done : float;
  mutable v_ticks : int;     (* runtime ticks from send to reply *)
  mutable v_receipt : bool;  (* the reply carried a receipt *)
}

let vote ~serial ~due =
  { v_serial = serial; v_due = due; v_sent = nan; v_picked = nan; v_done = nan;
    v_ticks = 0; v_receipt = false }

(* The closed-loop generator's votes, seen from its connections: each
   Client_vote frame it sends and each Client_reply it reads is
   timestamped at the wrapped call. *)
type closed = {
  gctx : Dd_group.Group_ctx.t;
  ticks : unit -> int;
  start : float;
  ready : (int, float) Hashtbl.t;          (* channel -> its previous reply *)
  inflight : (int, vote * int) Hashtbl.t;  (* req -> vote, tick when sent *)
  mutable unpicked : vote list;
  mutable replied : vote list;
}

let closed ~gctx ~ticks =
  { gctx; ticks; start = Trace.now (); ready = Hashtbl.create 64;
    inflight = Hashtbl.create 64; unpicked = []; replied = [] }

let frames dec bytes f =
  Frame.feed dec bytes;
  let rec pop () =
    match Frame.pop dec with
    | Some payload -> f payload; pop ()
    | None -> ()
  in
  pop ()

let wrap_client p (c : Transport.conn) : Transport.conn =
  let sent = Frame.create () and received = Frame.create () in
  { c with
    Transport.send =
      (fun s ~pos ~len ->
         let k = c.Transport.send s ~pos ~len in
         if k > 0 then begin
           let now = Trace.now () in
           frames sent (String.sub s pos k) (fun payload ->
               match Mux.decode p.gctx payload with
               | Some (Mux.Client_vote { channel; req; serial; _ }) ->
                 let due = Option.value ~default:p.start (Hashtbl.find_opt p.ready channel) in
                 let v = vote ~serial ~due in
                 v.v_sent <- now;
                 Hashtbl.replace p.inflight req (v, p.ticks ());
                 p.unpicked <- v :: p.unpicked
               | Some _ | None -> ())
         end;
         k);
    recv =
      (fun () ->
         let s = c.Transport.recv () in
         if s <> "" then begin
           let now = Trace.now () in
           frames received s (fun payload ->
               match Mux.decode p.gctx payload with
               | Some (Mux.Client_reply { channel; req; outcome }) ->
                 Hashtbl.replace p.ready channel now;
                 (match Hashtbl.find_opt p.inflight req with
                  | Some (v, sent_tick) ->
                    Hashtbl.remove p.inflight req;
                    v.v_done <- now;
                    v.v_ticks <- p.ticks () - sent_tick;
                    v.v_receipt <-
                      (match outcome with Types.Receipt _ -> true | Types.Rejected _ -> false);
                    p.replied <- v :: p.replied
                  | None -> ())
               | Some _ | None -> ())
         end;
         s) }

(* Call as each tick starts: it picks up every vote sent since the last. *)
let tick p =
  match p.unpicked with
  | [] -> ()
  | vs ->
    let now = Trace.now () in
    List.iter (fun v -> v.v_picked <- now) vs;
    p.unpicked <- []

let replied p = p.replied
