(* The voter (Section III-F). A voter holds a two-part paper ballot,
   flips a coin to pick the part (that coin doubles as the ZK challenge
   entropy), submits the vote code of her chosen option to a VC node,
   and verifies the returned receipt against the printed one — no
   client-side cryptography whatsoever, which is the point: the voting
   terminal can be hostile and still cannot fake recorded-as-cast
   assurance or learn more than a random-looking code.

   [d]-patience (Definition 1): if no valid receipt arrives within
   [patience] time units, blacklist the node and resubmit to another
   VC node chosen at random. *)

type plan = {
  ballot : Types.ballot;
  choice : int;               (* option index *)
  part : Types.part_id;       (* the coin flip *)
}

let make_plan rng ~(ballot : Types.ballot) ~choice =
  { ballot; choice; part = (if Dd_crypto.Drbg.bool rng then Types.B else Types.A) }

let vote_code plan =
  (Types.ballot_part plan.ballot plan.part).Types.lines.(plan.choice).Types.vote_code

let expected_receipt plan =
  (Types.ballot_part plan.ballot plan.part).Types.lines.(plan.choice).Types.receipt

let receipt_valid plan receipt = Dd_crypto.Ct.equal receipt (expected_receipt plan)

(* Retry policy on top of [d]-patience: attempt k waits
   patience * min(2^(k-1), cap), stretched by up to [jitter] relative
   jitter so retry storms against a restarting node decorrelate.
   Attempt 1 is plain patience (the paper's [d]). *)
type policy = {
  patience : float;
  cap : float;
  blacklist_rounds : int;
}

let default_policy = { patience = 20.; cap = 8.0; blacklist_rounds = 1 }

let backoff = 2.0

let retry_delay ?(cap = default_policy.cap) ?(jitter = 0.1) rng ~patience ~attempt =
  let attempt = if attempt < 1 then 1 else attempt in
  let mult = ref 1.0 in
  for _ = 2 to attempt do
    if !mult < cap then mult := !mult *. backoff
  done;
  let base = patience *. (if !mult > cap then cap else !mult) in
  if jitter <= 0. then base
  else
    base
    *. (1. +. (jitter *. float_of_int (Dd_crypto.Drbg.int rng 1000) /. 1000.))

(* Pick the next VC node: uniform over the non-blacklisted ones. *)
let pick_node rng ~nv ~blacklist =
  let candidates = List.filter (fun i -> not (List.mem i blacklist)) (List.init nv Fun.id) in
  match candidates with
  | [] -> None
  (* lint: allow exception-hygiene — index drawn uniformly below the length *)
  | _ -> Some (List.nth candidates (Dd_crypto.Drbg.int rng (List.length candidates)))

(* Audit information the voter may hand to a third-party auditor: the
   cast vote code (reveals nothing about the choice) and the entire
   unused part (unrelated to the used one). *)
type audit_info = {
  a_serial : int;
  a_cast_code : string;
  a_unused_part : Types.part_id;
  a_unused_lines : Types.ballot_line array;
}

let audit_info plan =
  let unused = Types.other_part plan.part in
  { a_serial = plan.ballot.Types.serial;
    a_cast_code = vote_code plan;
    a_unused_part = unused;
    a_unused_lines = (Types.ballot_part plan.ballot unused).Types.lines }

(* The closed-loop client pool (Section V's load generator threads),
   sans-IO: the drivers supply the effects, the pool owns every draw
   and every policy decision, so both backends cast the same codes at
   the same nodes for the same seed. *)
module Pool = struct
  type intent = { serial : int; choice : int }

  type effects = {
    send : client:int -> node:int -> req:int -> serial:int -> vote_code:string -> unit;
    arm_patience : delay:float -> (unit -> unit) -> unit;
    wait : delay:float -> (unit -> unit) -> unit;
    now : unit -> float;
    finished : unit -> unit;
  }

  type pending = {
    pd_client : int;
    pd_plan : plan;
    pd_node : int;
    pd_attempt : int;
    pd_round : int;     (* blacklist round the request was sent in *)
    pd_sent : float;
  }

  type t = {
    policy : policy;
    fx : effects;
    nv : int;
    ballot_for : int -> Types.ballot;
    rngs : Dd_crypto.Drbg.t array;
    queues : intent list array;
    blacklists : int list array;
    pending : (int, pending) Hashtbl.t;
    attempts : (int, int) Hashtbl.t;   (* submissions needed -> voters *)
    latencies : Dd_sim.Stats.sample_set;
    mutable next_req : int;
    mutable done_clients : int;
    mutable receipts_ok : int;
    mutable receipts_bad : int;
    mutable rejections : int;
    mutable exhausted : int;
    mutable successes : (int * string) list;
    mutable first_submit : float;
    mutable last_receipt : float;
  }

  let create ?(policy = default_policy) ~seed ~clients ~nv ~ballot_for fx intents =
    let n = max 1 clients in
    (* round-robin, like the paper's client threads loading their
       ballot files *)
    let queues = Array.make n [] in
    List.iteri (fun k v -> queues.(k mod n) <- v :: queues.(k mod n)) intents;
    Array.iteri (fun c q -> queues.(c) <- List.rev q) queues;
    { policy; fx; nv; ballot_for;
      rngs =
        Array.init n (fun c ->
            Dd_crypto.Drbg.create ~seed:(Printf.sprintf "client|%s|%d" seed c));
      queues;
      blacklists = Array.make n [];
      pending = Hashtbl.create 64;
      attempts = Hashtbl.create 8;
      latencies = Dd_sim.Stats.sample_set ();
      next_req = 0; done_clients = 0;
      receipts_ok = 0; receipts_bad = 0; rejections = 0; exhausted = 0;
      successes = [];
      first_submit = infinity; last_receipt = 0. }

  let clients t = Array.length t.queues

  (* one draw per submit, whether or not the driver arms a timer *)
  let delay t c ~attempt =
    retry_delay ~cap:t.policy.cap t.rngs.(c) ~patience:t.policy.patience ~attempt

  let rec start t c =
    match t.queues.(c) with
    | [] ->
      t.done_clients <- t.done_clients + 1;
      if Int.equal t.done_clients (clients t) then t.fx.finished ()
    | intent :: rest ->
      t.queues.(c) <- rest;
      t.blacklists.(c) <- [];
      let plan =
        make_plan t.rngs.(c) ~ballot:(t.ballot_for intent.serial) ~choice:intent.choice
      in
      submit t c plan ~attempt:1 ~round:1

  and submit t c plan ~attempt ~round =
    match pick_node t.rngs.(c) ~nv:t.nv ~blacklist:t.blacklists.(c) with
    | None ->
      if round < t.policy.blacklist_rounds then begin
        (* every node failed once: forget the blacklist and try the
           whole cluster again after a backoff wait (it may be
           partitioned or crashed-and-restarting, not Byzantine) *)
        t.blacklists.(c) <- [];
        t.fx.wait ~delay:(delay t c ~attempt)
          (fun () -> submit t c plan ~attempt:(attempt + 1) ~round:(round + 1))
      end
      else begin
        t.exhausted <- t.exhausted + 1;
        start t c
      end
    | Some node ->
      t.next_req <- t.next_req + 1;
      let req = t.next_req in
      let now = t.fx.now () in
      if now < t.first_submit then t.first_submit <- now;
      Hashtbl.replace t.pending req
        { pd_client = c; pd_plan = plan; pd_node = node; pd_attempt = attempt;
          pd_round = round; pd_sent = now };
      t.fx.send ~client:c ~node ~req ~serial:plan.ballot.Types.serial
        ~vote_code:(vote_code plan);
      (* [d]-patience: blacklist the node and resubmit on timeout *)
      t.fx.arm_patience ~delay:(delay t c ~attempt) (fun () ->
          if Hashtbl.mem t.pending req then begin
            Hashtbl.remove t.pending req;
            t.blacklists.(c) <- node :: t.blacklists.(c);
            submit t c plan ~attempt:(attempt + 1) ~round
          end)

  let on_reply t ~client ~req outcome =
    match Hashtbl.find_opt t.pending req with
    | Some pd when Int.equal pd.pd_client client ->
      Hashtbl.remove t.pending req;
      let c = client and plan = pd.pd_plan in
      (match outcome with
       | Types.Receipt r when receipt_valid plan r ->
         t.receipts_ok <- t.receipts_ok + 1;
         let k = pd.pd_attempt in
         Hashtbl.replace t.attempts k
           (1 + Option.value ~default:0 (Hashtbl.find_opt t.attempts k));
         t.successes <- (plan.ballot.Types.serial, vote_code plan) :: t.successes;
         let now = t.fx.now () in
         Dd_sim.Stats.record t.latencies (now -. pd.pd_sent);
         if now > t.last_receipt then t.last_receipt <- now;
         start t c
       | Types.Receipt _ ->
         (* a bad receipt means a malicious responder: blacklist, retry *)
         t.receipts_bad <- t.receipts_bad + 1;
         t.blacklists.(c) <- pd.pd_node :: t.blacklists.(c);
         submit t c plan ~attempt:(pd.pd_attempt + 1) ~round:pd.pd_round
       | Types.Rejected _ ->
         t.rejections <- t.rejections + 1;
         start t c)
    (* stale (patience already expired) or misrouted (another client's
       request): drop *)
    | Some _ | None -> ()

  let receipts_ok t = t.receipts_ok
  let receipts_bad t = t.receipts_bad
  let rejections t = t.rejections
  let exhausted t = t.exhausted
  let in_flight t = Hashtbl.length t.pending
  let successes t = t.successes
  let latencies t = t.latencies
  let first_submit t = t.first_submit
  let last_receipt t = t.last_receipt

  let attempt_counts t =
    let max_a = Hashtbl.fold (fun k _ m -> max k m) t.attempts 0 in
    Array.init max_a (fun i -> Option.value ~default:0 (Hashtbl.find_opt t.attempts (i + 1)))
end
