(* Network and CPU model on top of the event engine.

   Nodes live on physical machines. Sending samples a link latency
   (loopback for co-located nodes, LAN or LAN+WAN otherwise, with
   jitter); delivery enqueues the handler on the destination's CPU:
   each node owns [cores] virtual cores, a message occupies the
   earliest-free core for its service time, and co-locating many nodes
   on one machine multiplies service times (the memory-bus contention
   the paper observed when packing four logical VC nodes per physical
   machine). Faults: links can drop or duplicate, per a seeded DRBG,
   and a declarative [Fault_plan] adds timed partitions, per-link
   overrides, crashes, reordering, and delay spikes.

   Only inter-machine links fault: same-machine (loopback) deliveries
   are reliable, as local channels are in the paper's deployment
   model. Crashes are the exception — a crashed node neither sends nor
   receives anything, even over loopback.

   Messages are represented as closures, so the model is independent
   of any protocol's message type: the sender captures the typed
   message and destination handler; the network only needs the
   destination id, a CPU cost, and a byte size. *)

type node_id = int

type latency_model = {
  loopback : float;        (* same-machine delivery, seconds *)
  lan_base : float;
  lan_jitter : float;      (* uniform [0, jitter) added to base *)
  wan_extra : float;       (* added when machines differ, e.g. 25 ms *)
  drop_prob : float;
  duplicate_prob : float;
}

let lan =
  { loopback = 0.00002; lan_base = 0.0001; lan_jitter = 0.00005;
    wan_extra = 0.; drop_prob = 0.; duplicate_prob = 0. }

let wan ?(extra = 0.025) () = { lan with wan_extra = extra }

type node = {
  id : node_id;
  machine : int;
  cores : int;
  mutable core_free : float array;  (* per-core next-free virtual time *)
}

type t = {
  engine : Engine.t;
  latency : latency_model;
  faults : Fault_plan.t;
  mutable nodes : node array;
  machine_population : (int, int) Hashtbl.t; (* machine -> node count *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_dropped : int;  (* drops, cuts, and crash losses *)
}

(* Contention curve, co-located node count -> service multiplier: up to
   3 nodes per machine run at full speed; a 4th overloads the shared
   memory bus. *)
let contention k = if k <= 3 then 1.0 else 1.0 +. 0.35 *. float_of_int (k - 3)

let create ?(latency = lan) ?(faults = Fault_plan.none) engine =
  { engine; latency; faults; nodes = [||];
    machine_population = Hashtbl.create 16;
    messages_sent = 0; bytes_sent = 0; messages_dropped = 0 }

let engine t = t.engine
let now t = Engine.now t.engine

let add_node t ~machine ~cores =
  let id = Array.length t.nodes in
  let node = { id; machine; cores; core_free = Array.make cores 0. } in
  t.nodes <- Array.append t.nodes [| node |];
  Hashtbl.replace t.machine_population machine
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.machine_population machine));
  id

let node t id =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Net.node: unknown id";
  t.nodes.(id)

let service_multiplier t n =
  contention (Option.value ~default:1 (Hashtbl.find_opt t.machine_population n.machine))

(* Occupy the earliest-free core of [n] starting no earlier than [from]
   for [cost] seconds; returns the completion time. *)
let occupy_cpu t n ~from ~cost =
  let best = ref 0 in
  for i = 1 to n.cores - 1 do
    if n.core_free.(i) < n.core_free.(!best) then best := i
  done;
  let start = if n.core_free.(!best) > from then n.core_free.(!best) else from in
  let finish = start +. (cost *. service_multiplier t n) in
  n.core_free.(!best) <- finish;
  finish

(* Run [action] on node [dst]'s CPU as soon as possible after [at]. *)
let exec_at t ~dst ~at ~cost action =
  let n = node t dst in
  let finish = occupy_cpu t n ~from:at ~cost in
  Engine.schedule_at t.engine ~at:finish action

let exec t ~dst ~cost action = exec_at t ~dst ~at:(now t) ~cost action

let sample_latency t ~src ~dst =
  let rng = Engine.rng t.engine in
  let jitter = t.latency.lan_jitter *. float_of_int (Dd_crypto.Drbg.int rng 1000) /. 1000. in
  let s = node t src and d = node t dst in
  if s.machine = d.machine then t.latency.loopback +. (jitter /. 4.)
  else begin
    let base = t.latency.lan_base +. jitter in
    base +. t.latency.wan_extra
  end

let node_up t id = not (Fault_plan.crashed t.faults ~node:id ~at:(now t))

(* Draw against probability [p]; never touches the DRBG when p = 0, so
   fault-free runs keep their exact event schedule. *)
let prob_hit rng p =
  p > 0. && Dd_crypto.Drbg.int rng 1_000_000 < int_of_float (p *. 1e6)

let drop_message t = t.messages_dropped <- t.messages_dropped + 1

let send t ~src ~dst ~size ~cost action =
  let rng = Engine.rng t.engine in
  let s = node t src and d = node t dst in
  let local = s.machine = d.machine in
  let at = now t in
  if Fault_plan.crashed t.faults ~node:src ~at then drop_message t
  else begin
    (* Loopback is reliable: only inter-machine links consult the base
       drop/duplicate probabilities or the fault plan's link faults. *)
    let cond =
      if local then Fault_plan.clear
      else
        Fault_plan.link_condition t.faults ~src ~src_machine:s.machine
          ~dst ~dst_machine:d.machine ~at
    in
    if cond.Fault_plan.cut then drop_message t
    else if prob_hit rng (if local then 0. else t.latency.drop_prob)
         || prob_hit rng cond.Fault_plan.drop
    then drop_message t
    else begin
      let deliver () =
        let latency = sample_latency t ~src ~dst in
        let extra =
          cond.Fault_plan.extra_delay
          +. (if cond.Fault_plan.jitter > 0. then
                cond.Fault_plan.jitter
                *. float_of_int (Dd_crypto.Drbg.int rng 1000) /. 1000.
              else 0.)
          +. (if prob_hit rng cond.Fault_plan.reorder_prob then
                cond.Fault_plan.reorder_horizon
                *. float_of_int (Dd_crypto.Drbg.int rng 1000) /. 1000.
              else 0.)
        in
        t.messages_sent <- t.messages_sent + 1;
        t.bytes_sent <- t.bytes_sent + size;
        let arrival = at +. latency +. extra in
        (* A message in flight to a node that is down on arrival is lost;
           CPU time is only occupied on live deliveries. *)
        if Fault_plan.crashed t.faults ~node:dst ~at:arrival then drop_message t
        else begin
          let finish = occupy_cpu t d ~from:arrival ~cost in
          Engine.schedule_at t.engine ~at:finish action
        end
      in
      deliver ();
      if prob_hit rng (if local then 0. else t.latency.duplicate_prob)
      || prob_hit rng cond.Fault_plan.duplicate
      then deliver ()
    end
  end

let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let messages_dropped t = t.messages_dropped
