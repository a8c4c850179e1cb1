(* Spans around the benchmark's own calls into each layer.

   A span is (name, start, end, parent); a per-vote span carries its
   ballot serial as key. Spans stay in memory and are written out as
   JSON lines when the run ends. With tracing off, [span] is a plain
   call and nothing is kept. *)

type span = {
  id : int;
  parent : int;  (* -1: a root *)
  name : string;
  key : int;     (* ballot serial of a per-vote span, else -1 *)
  t0 : float;
  t1 : float;
}

type t = {
  on : bool;
  mutable next_id : int;
  mutable stack : int list;   (* open spans, innermost first *)
  mutable spans : span list;  (* closed spans, newest first *)
}

let now = Unix.gettimeofday
let create ~on = { on; next_id = 0; stack = []; spans = [] }
let enabled t = t.on
let count t = List.length t.spans

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let span t name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        t.stack <- List.filter (fun i -> i <> id) t.stack;
        t.spans <- { id; parent; name; key = -1; t0; t1 } :: t.spans)
  end

(* A span whose ends were seen at different call sites: a vote from its
   due time to its reply. Keyed spans stay out of the layer totals. *)
let record t name ~key ~t0 ~t1 =
  if t.on then t.spans <- { id = fresh_id t; parent = -1; name; key; t0; t1 } :: t.spans

type total = { mutable calls : int; mutable total_s : float; mutable self_s : float }

(* Per span name: calls, summed duration, and self time (duration minus
   what the span's direct children cover). *)
let totals t =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace covered s.parent
           (s.t1 -. s.t0 +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
       if s.key < 0 then begin
         let tot =
           match Hashtbl.find_opt by_name s.name with
           | Some tot -> tot
           | None ->
             let tot = { calls = 0; total_s = 0.; self_s = 0. } in
             Hashtbl.add by_name s.name tot;
             tot
         in
         let d = s.t1 -. s.t0 in
         tot.calls <- tot.calls + 1;
         tot.total_s <- tot.total_s +. d;
         tot.self_s <-
           tot.self_s +. d -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
       end)
    t.spans;
  by_name

let durations t name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) t.spans)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\": %d, \"parent\": %d, \"name\": %S, \"key\": %d, \"start\": %.6f, \"end\": %.6f}\n"
         s.id s.parent s.name s.key s.t0 s.t1)
    (List.rev t.spans);
  close_out oc
