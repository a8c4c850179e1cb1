(* Declarative, time-windowed fault schedules for the network model.

   A fault plan is data, not behavior: [Net] consults it on every send
   to derive the condition of the (src, dst) link at that instant and
   whether either endpoint is crashed. All probabilistic faults are
   sampled from the engine's seeded DRBG by the caller, so a run under
   a fault plan remains a pure function of its seed.

   Windows are half-open [from_, until_): a partition healing at
   [until_] delivers messages sent at exactly that time. *)

type window = { from_ : float; until_ : float }

let active w ~at = at >= w.from_ && at < w.until_

type spec =
  | Partition of { machines : int list; w : window }
      (* cut every link between [machines] and the rest of the world *)
  | Link of {
      src : int option;        (* None = any source node *)
      dst : int option;        (* None = any destination node *)
      drop : float;
      extra_delay : float;
      jitter : float;          (* uniform [0, jitter) on top of extra_delay *)
      duplicate : float;
      w : window;
    }
  | Crash of { node : int; at : float; recover : float option }
      (* power loss: sends nothing, receives nothing, and in-memory
         state is gone. What survives is whatever the node synced to
         its durable device (Dd_store); at [recover] the harness
         cold-restarts the node from that device, truncating any
         unsynced log tail at the crash instant. *)
  | Reorder of { prob : float; horizon : float; w : window }
      (* each message independently delayed by uniform [0, horizon),
         with probability [prob] — bounded reordering *)

type t = spec list

let none = []

let partition ~machines ~from_ ~until_ =
  Partition { machines; w = { from_; until_ } }

let link ?src ?dst ?(drop = 0.) ?(extra_delay = 0.) ?(jitter = 0.)
    ?(duplicate = 0.) ~from_ ~until_ () =
  Link { src; dst; drop; extra_delay; jitter; duplicate; w = { from_; until_ } }

let crash ?recover ~node ~at () = Crash { node; at; recover }

let reorder ~prob ~horizon ~from_ ~until_ =
  Reorder { prob; horizon; w = { from_; until_ } }

let crash_specs t =
  List.filter_map
    (function
      | Crash { node; at; recover } -> Some (node, at, recover)
      | Partition _ | Link _ | Reorder _ -> None)
    t

let crashed t ~node ~at =
  List.exists
    (function
      | Crash { node = n; at = t0; recover } ->
        n = node && at >= t0
        && (match recover with None -> true | Some tr -> at < tr)
      | Partition _ | Link _ | Reorder _ -> false)
    t

type link_condition = {
  cut : bool;                  (* partitioned: the message vanishes *)
  drop : float;
  extra_delay : float;
  jitter : float;
  duplicate : float;
  reorder_prob : float;
  reorder_horizon : float;
}

let clear =
  { cut = false; drop = 0.; extra_delay = 0.; jitter = 0.; duplicate = 0.;
    reorder_prob = 0.; reorder_horizon = 0. }

(* Independent fault sources compose: 1 - prod (1 - p_i). *)
let combine_prob a b = 1. -. ((1. -. a) *. (1. -. b))

let link_condition t ~src ~src_machine ~dst ~dst_machine ~at =
  List.fold_left
    (fun acc spec ->
      match spec with
      | Partition { machines; w } when active w ~at ->
        let inside m = List.mem m machines in
        if inside src_machine <> inside dst_machine then { acc with cut = true }
        else acc
      | Link { src = s; dst = d; drop; extra_delay; jitter; duplicate; w }
        when active w ~at
             && (match s with None -> true | Some s -> s = src)
             && (match d with None -> true | Some d -> d = dst) ->
        { acc with
          drop = combine_prob acc.drop drop;
          extra_delay = acc.extra_delay +. extra_delay;
          jitter = acc.jitter +. jitter;
          duplicate = combine_prob acc.duplicate duplicate }
      | Reorder { prob; horizon; w } when active w ~at ->
        { acc with
          reorder_prob = combine_prob acc.reorder_prob prob;
          reorder_horizon = max acc.reorder_horizon horizon }
      | Partition _ | Link _ | Crash _ | Reorder _ -> acc)
    clear t

let describe_window w = Printf.sprintf "[%g, %g)" w.from_ w.until_

let describe_spec = function
  | Partition { machines; w } ->
    Printf.sprintf "partition machines {%s} %s"
      (String.concat "," (List.map string_of_int machines))
      (describe_window w)
  | Link { src; dst; drop; extra_delay; jitter; duplicate; w } ->
    let opt = function None -> "*" | Some i -> string_of_int i in
    Printf.sprintf
      "link %s->%s drop=%g delay=+%g jitter=%g dup=%g %s"
      (opt src) (opt dst) drop extra_delay jitter duplicate (describe_window w)
  | Crash { node; at; recover } ->
    Printf.sprintf "crash node %d at %g%s" node at
      (match recover with None -> "" | Some tr -> Printf.sprintf " recover %g" tr)
  | Reorder { prob; horizon; w } ->
    Printf.sprintf "reorder prob=%g horizon=%g %s" prob horizon (describe_window w)

let describe t =
  match t with
  | [] -> "(no faults)"
  | specs -> String.concat "; " (List.map describe_spec specs)
