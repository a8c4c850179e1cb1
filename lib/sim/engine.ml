(* Deterministic discrete-event simulation engine: a binary-heap event
   queue over virtual time, with a seeded DRBG for every random draw,
   so a run is a pure function of its seed. Virtual time is in seconds
   (float); ties are broken by insertion sequence to keep execution
   order stable. *)

type time = float

type event = {
  at : time;
  seq : int;
  action : unit -> unit;
}

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable now : time;
  mutable next_seq : int;
  rng : Dd_crypto.Drbg.t;
}

let create ~seed =
  { heap = Array.make 256 { at = 0.; seq = 0; action = ignore };
    size = 0;
    now = 0.;
    next_seq = 0;
    rng = Dd_crypto.Drbg.create ~seed }

let now t = t.now
let rng t = t.rng

let earlier a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let bigger = Array.make (2 * Array.length t.heap) t.heap.(0) in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let push t ev =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- ev;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && earlier t.heap.(!i) t.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = 2 * !i + 1 and r = 2 * !i + 2 in
      let smallest = ref !i in
      if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
    done;
    Some top
  end

let schedule_at t ~at action =
  let at = if at < t.now then t.now else at in
  push t { at; seq = t.next_seq; action };
  t.next_seq <- t.next_seq + 1

let schedule_after t ~delay action = schedule_at t ~at:(t.now +. delay) action

type run_outcome = [ `Drained | `Paused ]

(* Run until the queue drains or [until] is passed. Returns the number
   of events executed and how the run ended:

   - [`Drained]: the queue is empty. [now] stays at the last executed
     event (it is NOT advanced to [until]) — quiescence, not timeout.
   - [`Paused]: an event beyond [until] remains queued; it is pushed
     back, [now] is set to exactly [until], and the caller may resume
     later. *)
let run ?until t =
  let executed = ref 0 in
  let outcome = ref `Drained in
  let continue = ref true in
  while !continue do
    match pop t with
    | None -> continue := false
    | Some ev ->
      (match until with
       | Some limit when ev.at > limit ->
         (* put it back: the caller may resume later *)
         push t ev;
         t.now <- limit;
         outcome := `Paused;
         continue := false
       | _ ->
         t.now <- ev.at;
         ev.action ();
         incr executed)
  done;
  (!executed, !outcome)

