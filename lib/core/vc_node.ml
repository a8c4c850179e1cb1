(* Vote Collector node: the paper's Algorithm 1 (voting protocol) plus
   the Vote Set Consensus protocol of Section III-E.

   Voting: on VOTE the responder validates the code against the salted
   hashes, gathers Nv - fv signed ENDORSEMENTs into a uniqueness
   certificate (UCERT), then the nodes disclose their receipt shares
   (VOTE_P, gated on a valid UCERT) until Nv - fv shares reconstruct
   the 64-bit receipt that goes back to the voter.

   Vote Set Consensus: at election end every node ANNOUNCEs what it
   knows (batched), adopts any UCERT-certified vote code it was
   missing, then enters one batched Bracha binary consensus over all
   ballots ("is this ballot voted?"), recovers missing codes from
   peers (RECOVER-REQUEST), and submits the agreed set and its msk
   share to every BB node.

   The node is written sans-IO: all effects go through [env], so unit
   tests drive it directly and the simulator supplies transports.

   Durability: with [env.durable] set, every state transition that must
   survive a crash is logged to a {!Dd_store.Wal} journal *after* the
   in-memory mutation and *before* any externally visible send — the
   load-bearing case being the endorsed code, which is durable before
   an ENDORSEMENT signature leaves the node (otherwise a crashed and
   restarted collector could sign a second code for the same ballot and
   hand the adversary two UCERTs). [recover] rebuilds the node by
   replaying its whole journal; a node that crashed mid-consensus does
   not rejoin the running instance (it has no protocol state to resume,
   and restarting RBC from scratch would equivocate). *)

module Shamir_bytes = Dd_vss.Shamir_bytes
module Rbc = Dd_consensus.Rbc
module Binary_batch = Dd_consensus.Binary_batch
module Wal = Dd_store.Wal
module Wire = Dd_codec.Wire

type env = {
  me : int;
  cfg : Types.config;
  keys : Auth.keys;               (* VC clique; index nv is the EA *)
  store : Ballot_store.t;
  now : unit -> float;
  election_start : float;
  election_end : unit -> float;
  send_vc : dst:int -> Messages.vc_msg -> unit;
  reply : client:int -> req:int -> Types.vote_outcome -> unit;
  send_bb : dst:int -> Messages.bb_msg -> unit;
  rng : Dd_crypto.Drbg.t;
  consensus_coin : Binary_batch.coin;
  (* when false (modeled runs without EA tags), receipt shares are
     accepted based on shape alone *)
  verify_share_tags : bool;
  (* override for authenticator checks; must be semantically identical
     to [Auth.verify] (the serving runtime's amortizing verifier) *)
  verify_tag : (signer:int -> string -> Auth.tag -> bool) option;
  (* durable device for the journal; [None] runs the node memory-only
     (the scale benchmarks) *)
  durable : Dd_store.Device.t option;
}

type ballot_rt = {
  mutable status : Types.vc_status;
  mutable endorsed : string option;          (* the one code I endorsed *)
  mutable ucert : Messages.ucert option;
  mutable part : Types.part_id;
  mutable pos : int;
  (* responder-side endorsement collection *)
  mutable collecting : string option;
  mutable endorsements : (int * Auth.tag) list;
  (* receipt share collection *)
  mutable shares : Shamir_bytes.share list;  (* deduped by x *)
  mutable sent_vote_p : bool;
  mutable waiting_clients : (int * int) list;
  (* bitmask of peers whose pull for this ballot (a RECOVER-REQUEST
     during Voting) we have answered: each gets our full VOTE_P once.
     Transient, never journaled. *)
  mutable answered : int;
}

type phase = Voting | Vsc | Submitted

type vsc_state = {
  mutable announce_senders : int list;
  mutable consensus_started : bool;
  mutable rbc : Rbc.t option;
  mutable bb : Binary_batch.t option;
  mutable rbc_seq : int;
  mutable decided_count : int;
  (* allocated lazily at consensus start: elections can register
     hundreds of millions of ballots (Fig. 5a) *)
  mutable decisions : bool option array;
  mutable awaiting_recovery : (int, unit) Hashtbl.t;
  mutable submitted : bool;
  (* consensus messages and announcements can arrive before this node
     reaches its own election end (clock drift): buffer them *)
  mutable pending_consensus : (int * Rbc.msg) list;
}

type t = {
  env : env;
  ballots : (int, ballot_rt) Hashtbl.t;
  mutable phase : phase;
  vsc : vsc_state;
  quorum : int;                                (* Nv - fv *)
  (* counters for observability *)
  mutable votes_accepted : int;
  mutable receipts_issued : int;
  (* valid UCERTs seen for a code conflicting with one we already hold
     certified: (serial, our code, their code). Non-empty only when
     more than fv collectors equivocated (Section III-D's uniqueness
     argument) — the chaos harness's detection signal. *)
  mutable ucert_conflicts : (int * string * string) list;
  (* set while [recover] replays the journal: nothing is re-logged *)
  mutable recovering : bool;
}

let create env =
  { env;
    ballots = Hashtbl.create 1024;
    phase = Voting;
    vsc =
      { announce_senders = []; consensus_started = false; rbc = None; bb = None;
        rbc_seq = 0; decided_count = 0;
        decisions = [||];
        awaiting_recovery = Hashtbl.create 16; submitted = false;
        pending_consensus = [] };
    quorum = env.cfg.Types.nv - env.cfg.Types.fv;
    votes_accepted = 0;
    receipts_issued = 0;
    ucert_conflicts = [];
    recovering = false }

let ballot_rt t serial =
  match Hashtbl.find_opt t.ballots serial with
  | Some b -> b
  | None ->
    let b =
      { status = Types.Not_voted; endorsed = None; ucert = None;
        part = Types.A; pos = 0; collecting = None; endorsements = [];
        shares = []; sent_vote_p = false; waiting_clients = []; answered = 0 }
    in
    Hashtbl.replace t.ballots serial b;
    b

(* Message handlers reject a serial outside the election before any
   table access: [ballot_rt] inserts, and the inputs are hostile. *)
let serial_valid t serial = serial >= 0 && serial < t.env.cfg.Types.n_voters

let within_hours t =
  let now = t.env.now () in
  now >= t.env.election_start && now < t.env.election_end ()

let peers t = List.init t.env.cfg.Types.nv (fun i -> i) |> List.filter (fun i -> i <> t.env.me)

let multicast t msg = List.iter (fun dst -> t.env.send_vc ~dst msg) (peers t)

let election_id t = t.env.cfg.Types.election_id

(* --- WAL records -------------------------------------------------------- *)

(* One record per crash-critical transition. Each reducer case mirrors
   exactly the mutation set of its logging site; transient collection
   state (endorsement gathering, waiting clients, live consensus
   objects) is deliberately not persisted — a restarted node abandons
   in-flight quorum collection and the client's retry restarts it. *)
type wal_rec =
  | R_vote_accepted of { serial : int; code : string; part : Types.part_id; pos : int }
  | R_endorsed of { serial : int; code : string; part : Types.part_id; pos : int }
  (* [endorse] distinguishes the VOTE_P adoption site (which also binds
     part/pos and the endorsed code) from sites where they are already
     durable or deliberately untouched *)
  | R_ucert of { ucert : Messages.ucert; part : Types.part_id; pos : int; endorse : bool }
  | R_sent_vote_p of int
  | R_share of { serial : int; share : Shamir_bytes.share }
  | R_receipt of { serial : int; code : string; receipt : string }
  | R_conflict of { serial : int; ours : string; theirs : string }
  | R_phase_vsc
  | R_announce_from of int
  | R_consensus_started
  | R_decided of { slot : int; value : bool }
  | R_submitted

let encode_rec rc =
  let w = Wire.writer () in
  (match rc with
   | R_vote_accepted { serial; code; part; pos } ->
     Wire.put_varint w 0; Wire.put_varint w serial; Wire.put_bytes w code;
     Messages.put_part w part; Wire.put_varint w pos
   | R_endorsed { serial; code; part; pos } ->
     Wire.put_varint w 1; Wire.put_varint w serial; Wire.put_bytes w code;
     Messages.put_part w part; Wire.put_varint w pos
   | R_ucert { ucert; part; pos; endorse } ->
     Wire.put_varint w 2; Messages.put_ucert w ucert;
     Messages.put_part w part; Wire.put_varint w pos; Wire.put_bool w endorse
   | R_sent_vote_p serial -> Wire.put_varint w 3; Wire.put_varint w serial
   | R_share { serial; share } ->
     Wire.put_varint w 4; Wire.put_varint w serial; Messages.put_share w share
   | R_receipt { serial; code; receipt } ->
     Wire.put_varint w 5; Wire.put_varint w serial; Wire.put_bytes w code;
     Wire.put_bytes w receipt
   | R_conflict { serial; ours; theirs } ->
     Wire.put_varint w 6; Wire.put_varint w serial; Wire.put_bytes w ours;
     Wire.put_bytes w theirs
   | R_phase_vsc -> Wire.put_varint w 7
   | R_announce_from sender -> Wire.put_varint w 8; Wire.put_varint w sender
   | R_consensus_started -> Wire.put_varint w 9
   | R_decided { slot; value } ->
     Wire.put_varint w 10; Wire.put_varint w slot; Wire.put_bool w value
   | R_submitted -> Wire.put_varint w 11);
  Wire.contents w

let decode_rec payload =
  Wire.decode payload (fun r ->
      match Wire.get_varint r with
      | 0 ->
        let serial = Wire.get_varint r in
        let code = Wire.get_bytes r in
        let part = Messages.get_part r in
        let pos = Wire.get_varint r in
        R_vote_accepted { serial; code; part; pos }
      | 1 ->
        let serial = Wire.get_varint r in
        let code = Wire.get_bytes r in
        let part = Messages.get_part r in
        let pos = Wire.get_varint r in
        R_endorsed { serial; code; part; pos }
      | 2 ->
        let ucert = Messages.get_ucert r in
        let part = Messages.get_part r in
        let pos = Wire.get_varint r in
        let endorse = Wire.get_bool r in
        R_ucert { ucert; part; pos; endorse }
      | 3 -> R_sent_vote_p (Wire.get_varint r)
      | 4 ->
        let serial = Wire.get_varint r in
        R_share { serial; share = Messages.get_share r }
      | 5 ->
        let serial = Wire.get_varint r in
        let code = Wire.get_bytes r in
        R_receipt { serial; code; receipt = Wire.get_bytes r }
      | 6 ->
        let serial = Wire.get_varint r in
        let ours = Wire.get_bytes r in
        R_conflict { serial; ours; theirs = Wire.get_bytes r }
      | 7 -> R_phase_vsc
      | 8 -> R_announce_from (Wire.get_varint r)
      | 9 -> R_consensus_started
      | 10 ->
        let slot = Wire.get_varint r in
        R_decided { slot; value = Wire.get_bool r }
      | 11 -> R_submitted
      | _ -> raise (Wire.Malformed "vc wal record"))

(* Append + sync: the record is on the platter before the caller's next
   send. No-op without a device or while replaying. [?sync:false] is
   for pure-liveness bookkeeping whose loss at a crash is safe — it
   leaves an unsynced tail the crash may tear mid-frame, which is
   exactly what recovery's clean-prefix scan must tolerate. *)
let log_rec ?(sync = true) t rc =
  match t.env.durable with
  | Some device when not t.recovering -> Wal.log ~sync device (encode_rec rc)
  | Some _ | None -> ()

(* Callers pass a [code] backed by a UCERT they already verified: if we
   hold a certified code for the same serial and it differs, two valid
   uniqueness certificates exist — record the safety violation. *)
let note_conflict t serial (b : ballot_rt) ~code =
  match b.ucert with
  | Some u when not (Dd_crypto.Ct.equal u.Messages.u_code code) ->
    if not
        (List.exists
           (fun (s, _, theirs) -> s = serial && Dd_crypto.Ct.equal theirs code)
           t.ucert_conflicts)
    then begin
      t.ucert_conflicts <- (serial, u.Messages.u_code, code) :: t.ucert_conflicts;
      log_rec t (R_conflict { serial; ours = u.Messages.u_code; theirs = code })
    end
  | Some _ | None -> ()

(* All authenticator checks funnel through here so a host runtime can
   substitute an amortizing verifier (env.verify_tag); the default is a
   direct [Auth.verify]. *)
let verify_tag t ~signer body tag =
  match t.env.verify_tag with
  | Some f -> f ~signer body tag
  | None -> Auth.verify t.env.keys ~signer body tag

let verify_ucert t ucert =
  Messages.verify_ucert_with ?verify:t.env.verify_tag t.env.keys
    ~election_id:(election_id t) ~quorum:t.quorum ucert

let verify_receipt_share t ~serial ~part ~pos ~node (share : Shamir_bytes.share) tag =
  share.Shamir_bytes.x = node + 1
  && String.length share.Shamir_bytes.data = Types.receipt_bytes
  && begin
    if not t.env.verify_share_tags then true
    else
      match tag with
      | None -> false
      | Some tag ->
        let body = Messages.share_body ~election_id:(election_id t) ~serial ~part ~pos ~node ~share in
        verify_tag t ~signer:t.env.cfg.Types.nv body tag
  end

let own_share t ~serial ~part ~pos =
  let lines = Ballot_store.lines t.env.store ~serial ~part in
  let line = lines.(pos) in
  (line.Types.receipt_share, line.Types.share_tag)

let add_share b (share : Shamir_bytes.share) =
  if List.exists (fun s -> s.Shamir_bytes.x = share.Shamir_bytes.x) b.shares then false
  else begin
    b.shares <- share :: b.shares;
    true
  end

(* Reconstruct once we hold exactly the quorum of distinct shares. *)
let try_reconstruct t serial (b : ballot_rt) code =
  if List.length b.shares >= t.quorum then begin
    let selected =
      List.sort (fun a c -> compare a.Shamir_bytes.x c.Shamir_bytes.x) b.shares
      |> List.filteri (fun i _ -> i < t.quorum)
    in
    let receipt = Shamir_bytes.reconstruct ~threshold:t.quorum selected in
    b.status <- Types.Voted (code, receipt);
    t.receipts_issued <- t.receipts_issued + 1;
    log_rec t (R_receipt { serial; code; receipt });
    List.iter
      (fun (client, req) -> t.env.reply ~client ~req (Types.Receipt receipt))
      b.waiting_clients;
    b.waiting_clients <- []
  end

(* Our own share for [b] and the VOTE_P disclosing it with [ucert]. *)
let own_vote_p t ~serial ~code (b : ballot_rt) ~ucert =
  let share, share_tag = own_share t ~serial ~part:b.part ~pos:b.pos in
  ( share,
    Messages.Vote_p
      { serial; vote_code = code; sender = t.env.me; part = b.part; pos = b.pos;
        share; share_tag; ucert } )

(* Disclose our own share: the VOTE_P multicast (only ever once). Only
   the UCERT's former carries it; every other node sends the elided
   form, and a peer that cannot match it pulls the certificate. *)
let disclose_share t ~serial ~code ~former (b : ballot_rt) =
  if not b.sent_vote_p then begin
    b.sent_vote_p <- true;
    let share, msg = own_vote_p t ~serial ~code b ~ucert:(if former then b.ucert else None) in
    ignore (add_share b share);
    log_rec t (R_sent_vote_p serial);
    multicast t msg
  end

(* --- Algorithm 1: ON VOTE -------------------------------------------- *)

(* Become the responder for a code no one here has endorsed: the only
   VOTE path that creates ballot state, and only for a store-valid code. *)
let start_collecting t ~client ~req ~serial ~vote_code =
  match Ballot_store.verify_vote_code t.env.store ~serial ~vote_code with
  | None -> t.env.reply ~client ~req (Types.Rejected "invalid vote code")
  | Some (part, pos, _line) ->
    let b = ballot_rt t serial in
    t.votes_accepted <- t.votes_accepted + 1;
    b.part <- part;
    b.pos <- pos;
    b.collecting <- Some vote_code;
    b.endorsed <- Some vote_code;
    b.waiting_clients <- (client, req) :: b.waiting_clients;
    (* endorse it ourselves, then gather the rest *)
    let body = Messages.endorsement_body ~election_id:(election_id t) ~serial ~code:vote_code in
    b.endorsements <- [ (t.env.me, Auth.sign t.env.keys body) ];
    log_rec t (R_vote_accepted { serial; code = vote_code; part; pos });
    multicast t (Messages.Endorse { serial; vote_code; responder = t.env.me })

let on_vote t ~client ~req ~serial ~vote_code =
  if not (within_hours t) then
    t.env.reply ~client ~req (Types.Rejected "outside election hours")
  else if not (serial_valid t serial) then
    t.env.reply ~client ~req (Types.Rejected "invalid vote code")
  else
    match Hashtbl.find_opt t.ballots serial with
    | None -> start_collecting t ~client ~req ~serial ~vote_code
    | Some b ->
    match b.status with
    | Types.Voted (code, receipt) ->
      if Dd_crypto.Ct.equal code vote_code then
        t.env.reply ~client ~req (Types.Receipt receipt)
      else t.env.reply ~client ~req (Types.Rejected "ballot already voted")
    | Types.Pending code ->
      if Dd_crypto.Ct.equal code vote_code then
        b.waiting_clients <- (client, req) :: b.waiting_clients
      else t.env.reply ~client ~req (Types.Rejected "another vote code pending")
    | Types.Not_voted ->
      match b.collecting, b.endorsed with
      | Some code, _ when Dd_crypto.Ct.equal code vote_code ->
        (* we are already the responder for this code: just wait *)
        b.waiting_clients <- (client, req) :: b.waiting_clients
      | Some _, _ ->
        t.env.reply ~client ~req (Types.Rejected "another vote code pending")
      | None, Some code when not (Dd_crypto.Ct.equal code vote_code) ->
        t.env.reply ~client ~req (Types.Rejected "conflicting vote code endorsed")
      | None, _ -> start_collecting t ~client ~req ~serial ~vote_code

(* --- ON ENDORSE ------------------------------------------------------- *)

let on_endorse t ~responder ~serial ~vote_code =
  if within_hours t && serial_valid t serial then begin
    let compatible =
      match Hashtbl.find_opt t.ballots serial with
      | None -> true
      | Some b ->
        (match b.endorsed, b.status with
         | _, Types.Voted (code, _) -> Dd_crypto.Ct.equal code vote_code
         | Some code, _ -> Dd_crypto.Ct.equal code vote_code
         | None, _ -> true)
    in
    if compatible then begin
      match Ballot_store.verify_vote_code t.env.store ~serial ~vote_code with
      | None -> ()
      | Some (part, pos, _) ->
        let b = ballot_rt t serial in
        let fresh =
          match b.endorsed with
          | Some code -> not (Dd_crypto.Ct.equal code vote_code)
          | None -> true
        in
        b.endorsed <- Some vote_code;
        if b.status = Types.Not_voted && b.collecting = None then begin
          b.part <- part;
          b.pos <- pos
        end;
        (* the endorsed code must be durable before our signature leaves:
           a restart that forgot it could sign a conflicting code and
           mint the adversary a second UCERT *)
        if fresh then log_rec t (R_endorsed { serial; code = vote_code; part; pos });
        let body = Messages.endorsement_body ~election_id:(election_id t) ~serial ~code:vote_code in
        t.env.send_vc ~dst:responder
          (Messages.Endorsement
             { serial; vote_code; signer = t.env.me; tag = Auth.sign t.env.keys body })
    end
  end

(* --- ON ENDORSEMENT (responder side) ----------------------------------- *)

let on_endorsement t ~signer ~serial ~vote_code ~tag =
  if within_hours t && serial_valid t serial then begin
    match Hashtbl.find_opt t.ballots serial with
    | None -> ()
    | Some b ->
    match b.collecting with
    | Some code when Dd_crypto.Ct.equal code vote_code && b.ucert = None ->
      let body = Messages.endorsement_body ~election_id:(election_id t) ~serial ~code in
      if verify_tag t ~signer body tag
      && not (List.mem_assoc signer b.endorsements) then begin
        b.endorsements <- (signer, tag) :: b.endorsements;
        if List.length b.endorsements >= t.quorum then begin
          let ucert =
            { Messages.u_serial = serial; Messages.u_code = code;
              Messages.endorsements = b.endorsements }
          in
          b.ucert <- Some ucert;
          b.status <- Types.Pending code;
          log_rec t (R_ucert { ucert; part = b.part; pos = b.pos; endorse = false });
          disclose_share t ~serial ~code ~former:true b;
          try_reconstruct t serial b code
        end
      end
    | _ -> ()
  end

(* --- ON VOTE_P --------------------------------------------------------- *)

(* The UCERT a VOTE_P's share counts against: the message's own once
   verified, or for the elided form the one this node already holds for
   exactly this serial and code. *)
let vote_p_ucert t ~serial ~vote_code (ucert : Messages.ucert option) =
  match ucert with
  | Some u ->
    if u.Messages.u_serial = serial
    && Dd_crypto.Ct.equal u.Messages.u_code vote_code
    && verify_ucert t u
    then Some u
    else None
  | None ->
    (match Hashtbl.find_opt t.ballots serial with
     | Some { ucert = Some u; _ } when Dd_crypto.Ct.equal u.Messages.u_code vote_code ->
       Some u
     | Some _ | None -> None)

let on_vote_p t ~sender ~serial ~vote_code ~part ~pos ~share ~share_tag ~ucert =
  if within_hours t && serial_valid t serial then
  match vote_p_ucert t ~serial ~vote_code ucert with
  | None ->
    (* an elided VOTE_P this node cannot match: pull the UCERT from its
       sender, which answers with its full VOTE_P *)
    if Option.is_none ucert && t.phase = Voting && sender <> t.env.me then
      t.env.send_vc ~dst:sender
        (Messages.Recover_request { sender = t.env.me; serials = [ serial ] })
  | Some ucert ->
    (match Hashtbl.find_opt t.ballots serial with
     | Some b -> note_conflict t serial b ~code:vote_code
     | None -> ());
    let lines = Ballot_store.lines t.env.store ~serial ~part in
    let pos_ok = pos >= 0 && pos < Array.length lines in
    (* the sender's disclosed share must carry the EA's authenticator
       for (serial, part, pos, sender) *)
    let share_ok =
      pos_ok && verify_receipt_share t ~serial ~part ~pos ~node:sender share share_tag
    in
    if share_ok then begin
    let b = ballot_rt t serial in
    let accept_share () = if add_share b share then log_rec t (R_share { serial; share }) in
    match b.status with
    | Types.Not_voted ->
      (match b.endorsed with
       | Some code when not (Dd_crypto.Ct.equal code vote_code) -> ()
       | _ ->
         if pos_ok then begin
           b.part <- part;
           b.pos <- pos;
           b.endorsed <- Some vote_code;
           b.ucert <- Some ucert;
           b.status <- Types.Pending vote_code;
           log_rec t (R_ucert { ucert; part; pos; endorse = true });
           accept_share ();
           disclose_share t ~serial ~code:vote_code ~former:false b;
           try_reconstruct t serial b vote_code
         end)
    | Types.Pending code when Dd_crypto.Ct.equal code vote_code ->
      if b.ucert = None then begin
        b.ucert <- Some ucert;
        log_rec t (R_ucert { ucert; part = b.part; pos = b.pos; endorse = false })
      end;
      accept_share ();
      disclose_share t ~serial ~code ~former:false b;
      try_reconstruct t serial b code
    | Types.Voted (code, _) when Dd_crypto.Ct.equal code vote_code ->
      accept_share ()
    | Types.Pending _ | Types.Voted _ -> ()
    end

(* --- Vote Set Consensus ------------------------------------------------ *)

let known_entries t =
  Hashtbl.fold
    (fun serial (b : ballot_rt) acc ->
       match b.ucert, b.status with
       | Some ucert, (Types.Pending code | Types.Voted (code, _)) ->
         (serial, code, ucert) :: acc
       | _ -> acc)
    t.ballots []

let send_submission t =
  let set = ref [] in
  for serial = t.env.cfg.Types.n_voters - 1 downto 0 do
    match t.vsc.decisions.(serial) with
    | Some true ->
      let b = ballot_rt t serial in
      (match b.status, b.ucert with
       | (Types.Pending code | Types.Voted (code, _)), _ -> set := (serial, code) :: !set
       | Types.Not_voted, Some ucert -> set := (serial, ucert.Messages.u_code) :: !set
       | Types.Not_voted, None -> () (* recovery failed: impossible with honest quorum *))
    | Some false | None -> ()
  done;
  let msg =
    Messages.Vote_set_submit
      { sender = t.env.me; set = !set; msk_share = Ballot_store.msk_share t.env.store }
  in
  for bb = 0 to t.env.cfg.Types.nb - 1 do
    t.env.send_bb ~dst:bb msg
  done

let submit_to_bb t =
  if not t.vsc.submitted then begin
    t.vsc.submitted <- true;
    t.phase <- Submitted;
    log_rec t R_submitted;
    send_submission t
  end

let check_recovery_complete t =
  if t.vsc.consensus_started
  && t.vsc.decided_count = t.env.cfg.Types.n_voters
  && Hashtbl.length t.vsc.awaiting_recovery = 0
  then submit_to_bb t

let on_decide t slot value =
  t.vsc.decisions.(slot) <- Some value;
  t.vsc.decided_count <- t.vsc.decided_count + 1;
  if value then begin
    let b = ballot_rt t slot in
    match b.ucert with
    | Some _ -> ()
    | None -> Hashtbl.replace t.vsc.awaiting_recovery slot ()
  end;
  log_rec t (R_decided { slot; value });
  if t.vsc.decided_count = t.env.cfg.Types.n_voters then begin
    let missing = Hashtbl.fold (fun s () acc -> s :: acc) t.vsc.awaiting_recovery [] in
    if missing <> [] then
      multicast t (Messages.Recover_request { sender = t.env.me; serials = missing });
    check_recovery_complete t
  end

let start_consensus t =
  if not t.vsc.consensus_started then begin
    t.vsc.consensus_started <- true;
    t.vsc.decisions <- Array.make t.env.cfg.Types.n_voters None;
    (* durable before Binary_batch.start broadcasts anything: a restart
       must never re-enter an instance it already spoke in *)
    log_rec t R_consensus_started;
    let n = t.env.cfg.Types.nv and f = t.env.cfg.Types.fv in
    let me = t.env.me in
    let rbc = ref None in
    let send_all m =
      (* deliver to self synchronously, then to peers over the network *)
      (match !rbc with Some r -> Rbc.on_message r ~from:me m | None -> ());
      multicast t (Messages.Consensus { sender = me; rbc = m })
    in
    let bb = ref None in
    let deliver ~origin ~tag:_ payload =
      match !bb with
      | Some b -> Binary_batch.on_deliver b ~from:origin payload
      | None -> ()
    in
    let r = Rbc.create ~n ~f ~me ~send_all ~deliver in
    rbc := Some r;
    t.vsc.rbc <- Some r;
    let initial =
      Array.init t.env.cfg.Types.n_voters (fun serial ->
          match Hashtbl.find_opt t.ballots serial with
          | Some b -> b.ucert <> None
          | None -> false)
    in
    let broadcast payload =
      t.vsc.rbc_seq <- t.vsc.rbc_seq + 1;
      Rbc.broadcast r ~tag:(Printf.sprintf "bc/%d/%d" me t.vsc.rbc_seq) payload
    in
    let b =
      Binary_batch.create ~n ~f ~me ~slots:t.env.cfg.Types.n_voters ~initial
        ~coin:t.env.consensus_coin ~rng:t.env.rng ~broadcast
        ~on_decide:(fun slot value -> on_decide t slot value)
    in
    bb := Some b;
    t.vsc.bb <- Some b;
    Binary_batch.start b;
    (* drain consensus traffic that arrived before we started *)
    let buffered = List.rev t.vsc.pending_consensus in
    t.vsc.pending_consensus <- [];
    List.iter (fun (from, m) -> Rbc.on_message r ~from m) buffered
  end

(* Adopt an announced (serial, code, UCERT) if we were missing it. *)
let adopt_entry t (serial, code, ucert) =
  if serial >= 0 && serial < t.env.cfg.Types.n_voters
  && ucert.Messages.u_serial = serial
  && Dd_crypto.Ct.equal ucert.Messages.u_code code
  && verify_ucert t ucert
  then begin
    let b = ballot_rt t serial in
    note_conflict t serial b ~code;
    if b.ucert = None then begin
      b.ucert <- Some ucert;
      (match b.status with
       | Types.Not_voted -> b.status <- Types.Pending code
       | Types.Pending _ | Types.Voted _ -> ());
      log_rec t (R_ucert { ucert; part = b.part; pos = b.pos; endorse = false })
    end;
    if Hashtbl.mem t.vsc.awaiting_recovery serial then begin
      Hashtbl.remove t.vsc.awaiting_recovery serial;
      check_recovery_complete t
    end
  end

let maybe_start_consensus t =
  if t.phase <> Voting
  && (not t.vsc.consensus_started)
  && List.length t.vsc.announce_senders >= t.quorum
  then start_consensus t

let start_vote_set_consensus t =
  if t.phase = Voting then begin
    t.phase <- Vsc;
    if not (List.mem t.env.me t.vsc.announce_senders) then begin
      t.vsc.announce_senders <- t.env.me :: t.vsc.announce_senders;
      log_rec t (R_announce_from t.env.me)
    end;
    log_rec t R_phase_vsc;
    let entries = known_entries t in
    let msg = Messages.Announce_batch { sender = t.env.me; entries } in
    multicast t msg;
    maybe_start_consensus t
  end

let on_announce_batch t ~sender ~entries =
  (* announcements are self-certifying (UCERTs), so we accept them even
     if our own clock has not reached election end yet *)
  if not (List.mem sender t.vsc.announce_senders) then begin
    t.vsc.announce_senders <- sender :: t.vsc.announce_senders;
    (* liveness-only bookkeeping: losing it merely makes the recovered
       node wait for a re-announce, so skip the sync barrier (any
       adopted UCERT below carries a synced record that covers it) *)
    log_rec ~sync:false t (R_announce_from sender);
    List.iter (adopt_entry t) entries;
    maybe_start_consensus t
  end

let on_consensus t ~sender ~rbc_msg =
  match t.vsc.rbc with
  | Some r -> Rbc.on_message r ~from:sender rbc_msg
  | None ->
    (* a recovered node with [consensus_started] but no live instance
       must not buffer (it will never drain): it sat out this round *)
    if not t.vsc.consensus_started then
      t.vsc.pending_consensus <- (sender, rbc_msg) :: t.vsc.pending_consensus

(* A pull: during Voting, a peer that could not match our elided VOTE_P
   gets our full one, once per peer and serial (peers past the mask's
   width are answered every time). *)
let answer_pull t ~sender serial =
  match Hashtbl.find_opt t.ballots serial with
  | Some ({ ucert = Some u; sent_vote_p = true; _ } as b) when sender <> t.env.me ->
    let bit = if sender < Sys.int_size then 1 lsl sender else 0 in
    if b.answered land bit = 0 then begin
      b.answered <- b.answered lor bit;
      t.env.send_vc ~dst:sender
        (snd (own_vote_p t ~serial ~code:u.Messages.u_code b ~ucert:(Some u)))
    end
  | Some _ | None -> ()

let on_recover_request t ~sender ~serials =
  if t.phase = Voting then List.iter (answer_pull t ~sender) serials
  else begin
    let entries =
      List.filter_map
        (fun serial ->
           match Hashtbl.find_opt t.ballots serial with
           | Some b ->
             (match b.ucert, b.status with
              | Some ucert, (Types.Pending code | Types.Voted (code, _)) ->
                Some (serial, code, ucert)
              | Some ucert, Types.Not_voted ->
                Some (serial, ucert.Messages.u_code, ucert)
              | None, _ -> None)
           | None -> None)
        serials
    in
    if entries <> [] then
      t.env.send_vc ~dst:sender (Messages.Recover_response { sender = t.env.me; entries })
  end

let on_recover_response t ~sender:_ ~entries =
  if t.phase <> Voting then List.iter (adopt_entry t) entries

(* --- dispatch ---------------------------------------------------------- *)

(* Dispatch guard: network input can be garbled or hostile, so reject
   any message naming a peer id outside the cluster before a handler
   uses it as a reply destination or a counting key. Deeper fields
   (serials, positions, shares, tags) are validated by the handlers
   against the ballot store and the EA's authenticators. *)
let peer_plausible t (msg : Messages.vc_msg) =
  let node i = i >= 0 && i < t.env.cfg.Types.nv in
  match msg with
  | Messages.Vote _ -> true
  | Messages.Endorse { responder; _ } -> node responder
  | Messages.Endorsement { signer; _ } -> node signer
  | Messages.Vote_p { sender; _ } -> node sender
  | Messages.Announce_batch { sender; _ } -> node sender
  | Messages.Consensus { sender; _ } -> node sender
  | Messages.Recover_request { sender; _ } -> node sender
  | Messages.Recover_response { sender; _ } -> node sender

let handle t (msg : Messages.vc_msg) =
  if not (peer_plausible t msg) then ()
  else
  match msg with
  | Messages.Vote { serial; vote_code; client; req } -> on_vote t ~client ~req ~serial ~vote_code
  | Messages.Endorse { serial; vote_code; responder } -> on_endorse t ~responder ~serial ~vote_code
  | Messages.Endorsement { serial; vote_code; signer; tag } ->
    on_endorsement t ~signer ~serial ~vote_code ~tag
  | Messages.Vote_p { serial; vote_code; sender; part; pos; share; share_tag; ucert } ->
    on_vote_p t ~sender ~serial ~vote_code ~part ~pos ~share ~share_tag ~ucert
  | Messages.Announce_batch { sender; entries } -> on_announce_batch t ~sender ~entries
  | Messages.Consensus { sender; rbc } -> on_consensus t ~sender ~rbc_msg:rbc
  | Messages.Recover_request { sender; serials } -> on_recover_request t ~sender ~serials
  | Messages.Recover_response { sender; entries } -> on_recover_response t ~sender ~entries

(* --- durability: the reducer, observable, recover ------------------------- *)

(* The reducer: each case mirrors exactly the in-memory mutations of
   its logging site, never sends, and is idempotent (duplicated
   protocol events — a re-received VOTE_P, say — coalesce). *)
let apply_rec t rc =
  match rc with
  | R_vote_accepted { serial; code; part; pos } ->
    let b = ballot_rt t serial in
    t.votes_accepted <- t.votes_accepted + 1;
    b.part <- part;
    b.pos <- pos;
    b.endorsed <- Some code
    (* collection state (collecting/endorsements/waiting) is transient:
       the client's retry restarts the endorsement round *)
  | R_endorsed { serial; code; part; pos } ->
    let b = ballot_rt t serial in
    b.endorsed <- Some code;
    if b.status = Types.Not_voted then begin
      b.part <- part;
      b.pos <- pos
    end
  | R_ucert { ucert; part; pos; endorse } ->
    let serial = ucert.Messages.u_serial in
    let b = ballot_rt t serial in
    if endorse then begin
      b.part <- part;
      b.pos <- pos;
      b.endorsed <- Some ucert.Messages.u_code
    end;
    if b.ucert = None then b.ucert <- Some ucert;
    if b.status = Types.Not_voted then b.status <- Types.Pending ucert.Messages.u_code;
    Hashtbl.remove t.vsc.awaiting_recovery serial
  | R_sent_vote_p serial ->
    let b = ballot_rt t serial in
    if not b.sent_vote_p then begin
      b.sent_vote_p <- true;
      let share, _tag = own_share t ~serial ~part:b.part ~pos:b.pos in
      ignore (add_share b share)
    end
  | R_share { serial; share } -> ignore (add_share (ballot_rt t serial) share)
  | R_receipt { serial; code; receipt } ->
    let b = ballot_rt t serial in
    (match b.status with
     | Types.Voted _ -> ()
     | Types.Not_voted | Types.Pending _ ->
       b.status <- Types.Voted (code, receipt);
       t.receipts_issued <- t.receipts_issued + 1)
  | R_conflict { serial; ours; theirs } ->
    if not
        (List.exists
           (fun (s, _, th) -> s = serial && Dd_crypto.Ct.equal th theirs)
           t.ucert_conflicts)
    then t.ucert_conflicts <- (serial, ours, theirs) :: t.ucert_conflicts
  | R_phase_vsc -> if t.phase = Voting then t.phase <- Vsc
  | R_announce_from sender ->
    if not (List.mem sender t.vsc.announce_senders) then
      t.vsc.announce_senders <- sender :: t.vsc.announce_senders
  | R_consensus_started ->
    if not t.vsc.consensus_started then begin
      t.vsc.consensus_started <- true;
      t.vsc.decisions <- Array.make t.env.cfg.Types.n_voters None
    end
  | R_decided { slot; value } ->
    if slot >= 0 && slot < Array.length t.vsc.decisions
    && t.vsc.decisions.(slot) = None then begin
      t.vsc.decisions.(slot) <- Some value;
      t.vsc.decided_count <- t.vsc.decided_count + 1;
      if value then begin
        let b = ballot_rt t slot in
        if b.ucert = None then Hashtbl.replace t.vsc.awaiting_recovery slot ()
      end
    end
  | R_submitted ->
    t.vsc.submitted <- true;
    t.phase <- Submitted

let put_status w = function
  | Types.Not_voted -> Wire.put_varint w 0
  | Types.Pending code ->
    Wire.put_varint w 1;
    Wire.put_bytes w code
  | Types.Voted (code, receipt) ->
    Wire.put_varint w 2;
    Wire.put_bytes w code;
    Wire.put_bytes w receipt

(* A ballot entry created as a side effect of a lookup (a rejected
   probe, a consensus slot touch) carries no durable state: skip it so
   the encoding is a function of the observable state only. *)
let ballot_blank (b : ballot_rt) =
  b.status = Types.Not_voted && b.endorsed = None && b.ucert = None
  && b.shares = [] && not b.sent_vote_p

(* Canonical (sorted) encoding: two nodes with the same observable
   state — whatever order events reached them in — encode to the same
   bytes, which is what the equivalence tests compare. *)
let observable t =
  let w = Wire.writer () in
  Wire.put_varint w 1;   (* format version *)
  Wire.put_varint w (match t.phase with Voting -> 0 | Vsc -> 1 | Submitted -> 2);
  Wire.put_varint w t.votes_accepted;
  Wire.put_varint w t.receipts_issued;
  Wire.put_list w
    (fun w (s, ours, theirs) ->
       Wire.put_varint w s;
       Wire.put_bytes w ours;
       Wire.put_bytes w theirs)
    (List.sort compare t.ucert_conflicts);
  Wire.put_list w Wire.put_varint (List.sort compare t.vsc.announce_senders);
  Wire.put_bool w t.vsc.consensus_started;
  Wire.put_bool w t.vsc.submitted;
  let decided = ref [] in
  Array.iteri
    (fun slot v -> match v with Some v -> decided := (slot, v) :: !decided | None -> ())
    t.vsc.decisions;
  Wire.put_list w
    (fun w (slot, v) ->
       Wire.put_varint w slot;
       Wire.put_bool w v)
    (List.rev !decided);
  let ballots =
    Hashtbl.fold
      (fun serial b acc -> if ballot_blank b then acc else (serial, b) :: acc)
      t.ballots []
    |> List.sort (fun (a, _) (c, _) -> compare a c)
  in
  Wire.put_list w
    (fun w (serial, (b : ballot_rt)) ->
       Wire.put_varint w serial;
       put_status w b.status;
       Wire.put_option w Wire.put_bytes b.endorsed;
       Wire.put_option w Messages.put_ucert b.ucert;
       Messages.put_part w b.part;
       Wire.put_varint w b.pos;
       Wire.put_bool w b.sent_vote_p;
       Wire.put_list w Messages.put_share
         (List.sort (fun a c -> compare a.Shamir_bytes.x c.Shamir_bytes.x) b.shares))
    ballots;
  Wire.contents w

let recover env =
  let t = create env in
  (match env.durable with
   | None -> ()
   | Some device ->
     t.recovering <- true;
     List.iter
       (fun payload ->
          match decode_rec payload with
          | Some rc -> apply_rec t rc
          | None -> ()   (* framed but undecodable: ignore, never crash *))
       (Wal.open_log device);
     t.recovering <- false);
  (* Re-issue duties whose sends the crash may have swallowed; every
     receiver dedupes. A node that had started consensus does not
     rejoin the instance — the remaining quorum carries the round. *)
  if t.vsc.submitted then send_submission t
  else if t.vsc.consensus_started then check_recovery_complete t
  else if t.phase = Vsc then begin
    let entries = known_entries t in
    multicast t (Messages.Announce_batch { sender = t.env.me; entries });
    maybe_start_consensus t
  end;
  t

let phase t = t.phase
let ballot_count t = Hashtbl.length t.ballots
let votes_accepted t = t.votes_accepted
let receipts_issued t = t.receipts_issued
let ucert_conflicts t = t.ucert_conflicts
let decisions t = Array.copy t.vsc.decisions
