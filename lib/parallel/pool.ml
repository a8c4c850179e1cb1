(* Fixed-size domain-pool executor.

   One pool owns [domains - 1] worker domains plus the calling domain:
   a parallel call splits its index space into chunks, pushes helper
   thunks to the workers, and the caller itself chews chunks until the
   space is exhausted — so the calling thread always makes progress and
   nested parallel calls on the same pool cannot deadlock (the inner
   caller simply claims every inner chunk itself if all workers are
   busy).

   Determinism contract (pinned by test/test_parallel.ml):
   - [parallel_map] / [parallel_for] write results by index, so their
     output is identical for every pool size, chunk size, and
     schedule.
   - When a chunk body raises, every chunk still runs; the exception
     with the *smallest* chunk index is re-raised in the caller with
     its original payload and backtrace — the same exception the plain
     serial loop would have raised first.

   Workers hold no work-specific state of their own; per-domain scratch
   (Curve's MSM arena, Sha256's message schedule) lives in
   Domain.DLS and materializes lazily in whichever domain touches it,
   so any chunk can run on any worker. *)

type t = {
  extra : int;                         (* worker domains, excluding the caller *)
  jobs : (unit -> unit) Queue.t;       (* pending helper thunks *)
  m : Mutex.t;
  cv : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let size t = t.extra + 1

let worker_main t =
  let rec loop () =
    Mutex.lock t.m;
    let rec take () =
      if t.closed then None
      else
        match Queue.take_opt t.jobs with
        | Some j -> Some j
        | None -> Condition.wait t.cv t.m; take ()
    in
    let job = take () in
    Mutex.unlock t.m;
    match job with
    | None -> ()
    | Some j ->
      (* helper thunks capture their own exceptions; this is belt and
         braces so a worker never dies *)
      (try j () with _ -> ());
      loop ()
  in
  loop ()

let create ?(domains = 1) () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    { extra = domains - 1;
      jobs = Queue.create ();
      m = Mutex.create ();
      cv = Condition.create ();
      closed = false;
      workers = [||] }
  in
  t.workers <- Array.init t.extra (fun _ -> Domain.spawn (fun () -> worker_main t));
  t

let shutdown t =
  Mutex.lock t.m;
  let first = not t.closed in
  t.closed <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  if first then Array.iter Domain.join t.workers

(* Run [body 0 .. body (nchunks-1)], sharing chunks with the workers.
   Serial fallback (no workers, or nothing to share) runs the plain
   ascending loop — bit-for-bit the pre-pool behavior. *)
let run_chunks t nchunks body =
  if nchunks > 0 then begin
    if t.extra = 0 || nchunks = 1 then
      for i = 0 to nchunks - 1 do body i done
    else begin
      let next = Atomic.make 0 in
      let completed = Atomic.make 0 in
      let err = Atomic.make None in
      let dm = Mutex.create () and dcv = Condition.create () in
      (* keep the failure with the smallest chunk index: deterministic
         regardless of which domain hit which chunk first *)
      let rec note_err i e bt =
        let cur = Atomic.get err in
        match cur with
        | Some (j, _, _) when j <= i -> ()
        | _ ->
          if not (Atomic.compare_and_set err cur (Some (i, e, bt))) then note_err i e bt
      in
      let work () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= nchunks then continue := false
          else begin
            (try body i
             with e -> note_err i e (Printexc.get_raw_backtrace ()));
            let c = 1 + Atomic.fetch_and_add completed 1 in
            if c = nchunks then begin
              (* wake the caller; the lock pairs with its check-then-wait *)
              Mutex.lock dm; Condition.broadcast dcv; Mutex.unlock dm
            end
          end
        done
      in
      let helpers = min t.extra (nchunks - 1) in
      Mutex.lock t.m;
      if t.closed then begin
        Mutex.unlock t.m;
        invalid_arg "Pool: parallel call after shutdown"
      end;
      for _ = 1 to helpers do Queue.add work t.jobs done;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      work ();
      Mutex.lock dm;
      while Atomic.get completed < nchunks do Condition.wait dcv dm done;
      Mutex.unlock dm;
      match Atomic.get err with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ~8 chunks per participant balances uneven per-item cost without
   drowning small inputs in scheduling overhead. *)
let default_chunk t n = max 1 ((n + (8 * size t) - 1) / (8 * size t))

let parallel_for t ?chunk n f =
  if n > 0 then begin
    let csize =
      match chunk with Some c when c >= 1 -> c | Some _ -> 1 | None -> default_chunk t n
    in
    let nchunks = (n + csize - 1) / csize in
    run_chunks t nchunks (fun ci ->
        let lo = ci * csize in
        let hi = min n (lo + csize) in
        for i = lo to hi - 1 do f i done)
  end

let parallel_map t ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    (* seed the result array from element 0 (computed in the caller, so
       an exception there propagates as in a serial map) *)
    let r0 = f arr.(0) in
    let out = Array.make n r0 in
    parallel_for t ?chunk (n - 1) (fun j ->
        let i = j + 1 in
        out.(i) <- f arr.(i));
    out
  end

(* --- the process-wide default pool ------------------------------------- *)

let env_domains () =
  match Sys.getenv_opt "DDEMOS_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some d when d >= 1 -> min d 64
     | Some _ | None -> 1)

let default_m = Mutex.create ()
let default_pool = ref None

let get_default () =
  Mutex.lock default_m;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
      let t = create ~domains:(env_domains ()) () in
      default_pool := Some t;
      (* join the workers on exit so the process never waits on an
         idle domain parked in Condition.wait *)
      at_exit (fun () -> shutdown t);
      t
  in
  Mutex.unlock default_m;
  t
