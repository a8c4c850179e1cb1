(* Vote Collector node: the paper's Algorithm 1 (voting protocol) plus
   the Vote Set Consensus protocol of Section III-E.

   Voting: on VOTE the responder validates the code against the salted
   hashes, gathers Nv - fv signed ENDORSEMENTs into a uniqueness
   certificate (UCERT), then sends its receipt share with the UCERT
   (VOTE_P) to every peer; each answers with its own share (SHARE,
   gated on a valid UCERT) until Nv - fv shares reconstruct the 64-bit
   receipt that goes back to the voter.

   Vote Set Consensus: at election end every node ANNOUNCEs the
   (serial, code) of every ballot it holds a UCERT for (batched, codes
   only), and pulls from each announcer the UCERTs it lacks
   (RECOVER-REQUEST, answered by RECOVER-RESPONSE), then enters one
   batched Bracha binary consensus over all ballots ("is this ballot
   voted?"), recovers the codes of ballots decided voted that it still
   lacks, and submits the agreed set and its msk share to every BB
   node.

   The node is written sans-IO: all effects go through [env], so unit
   tests drive it directly and the simulator supplies transports.

   Durability: every state transition that must survive a crash is a
   journal record, and [commit] is the only way to make one: it applies
   the record through the reducer [apply_rec], then (with [env.durable]
   set) logs it to a {!Dd_store.Wal} journal, all *before* any
   externally visible send — the load-bearing case being the endorsed
   code, which is durable before an ENDORSEMENT signature leaves the
   node (otherwise a crashed and restarted collector could sign a
   second code for the same ballot and hand the adversary two UCERTs).
   [create] opens the node by replaying its journal through the same
   reducer, so live and replayed state agree by construction; a node
   that crashed mid-consensus does not rejoin the running instance (it
   has no protocol state to resume, and restarting RBC from scratch
   would equivocate). *)

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
  election_end : unit -> float;
  send_vc : dst:int -> Messages.vc_msg -> unit;
  reply : client:int -> req:int -> Types.vote_outcome -> unit;
  send_bb : dst:int -> Messages.bb_msg -> unit;
  rng : Dd_crypto.Drbg.t;
  consensus_coin : Binary_batch.coin;
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
  (* whether this node has sent its VOTE_P to every peer, asking each
     for its share: at most once per ballot. Transient, never
     journaled, so a restarted node asks again. *)
  mutable asked : bool;
  (* the ENDORSEMENT tag this node signed for [endorsed], until it
     holds a UCERT: it completes the certificate a VOTE_P brings us
     without our own endorsement. Transient, never journaled, so a
     restarted node pulls the whole certificate instead. *)
  mutable own_tag : Auth.tag option;
}

type phase = Voting | Vsc | Submitted

type vsc_state = {
  (* announcers that count towards starting consensus *)
  mutable announce_senders : int list;
  (* announcers this node pulled UCERTs from and that have not answered
     yet: each counts only once its answer is adopted. Transient, never
     journaled. *)
  mutable pulling : int list;
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
}

let ballot_rt t serial =
  match Hashtbl.find_opt t.ballots serial with
  | Some b -> b
  | None ->
    let b =
      { status = Types.Not_voted; endorsed = None; ucert = None;
        part = Types.A; pos = 0; collecting = None; endorsements = [];
        shares = []; sent_vote_p = false; waiting_clients = []; answered = 0;
        asked = false; own_tag = None }
    in
    Hashtbl.replace t.ballots serial b;
    b

(* Message handlers reject a serial outside the election before any
   table access: [ballot_rt] inserts, and the inputs are hostile. *)
let serial_valid t serial = serial >= 0 && serial < t.env.cfg.Types.n_voters

let within_hours t = t.env.now () < t.env.election_end ()

let peers t = List.init t.env.cfg.Types.nv (fun i -> i) |> List.filter (fun i -> i <> t.env.me)

let multicast t msg = List.iter (fun dst -> t.env.send_vc ~dst msg) (peers t)

let election_id t = t.env.cfg.Types.election_id

(* --- WAL records -------------------------------------------------------- *)

(* One record per crash-critical transition; [apply_rec] below gives
   each its meaning. *)
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
   send. No-op without a device. [?sync:false] is for pure-liveness
   bookkeeping whose loss at a crash is safe — it leaves an unsynced
   tail the crash may tear mid-frame, which is exactly what the
   clean-prefix scan at [create] must tolerate. *)
let log_rec ?(sync = true) t rc =
  match t.env.durable with
  | Some device -> Wal.log ~sync device (encode_rec rc)
  | None -> ()

(* All authenticator checks funnel through here so a host runtime can
   substitute an amortizing verifier (env.verify_tag); the default is a
   direct [Auth.verify]. *)
let verify_tag t ~signer body tag =
  match t.env.verify_tag with
  | Some f -> f ~signer body tag
  | None -> Auth.verify t.env.keys ~signer body tag

let verify_ucert ?quorum t ucert =
  Messages.verify_ucert_with ?verify:t.env.verify_tag t.env.keys
    ~election_id:(election_id t) ~quorum:(Option.value quorum ~default:t.quorum) ucert

let verify_receipt_share t ~serial ~part ~pos ~node (share : Shamir_bytes.share) tag =
  share.Shamir_bytes.x = node + 1
  && String.length share.Shamir_bytes.data = Types.receipt_bytes
  && begin
    if not (Ballot_store.share_tags t.env.store) then true
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

(* Where this node holds [code] on ballot [serial]: the line the ballot
   is bound to once it is endorsed or certified (for that code only),
   else the store's lookup, which also yields this node's share and its
   EA tag on that line. *)
let code_line t ~serial ~code =
  match Hashtbl.find_opt t.ballots serial with
  | Some { status = Types.Pending c | Types.Voted (c, _); part; pos; _ }
  | Some { status = Types.Not_voted; endorsed = Some c; part; pos; _ } ->
    if Dd_crypto.Ct.equal c code then Some (part, pos, None) else None
  | Some { status = Types.Not_voted; endorsed = None; _ } | None ->
    Option.map
      (fun (part, pos, line) ->
         (part, pos, Some (line.Types.receipt_share, line.Types.share_tag)))
      (Ballot_store.verify_vote_code t.env.store ~serial ~vote_code:code)

(* The UCERT this node holds for exactly [serial] and [code], if any. *)
let held_ucert t ~serial ~code =
  match Hashtbl.find_opt t.ballots serial with
  | Some { ucert = Some u; _ } when Dd_crypto.Ct.equal u.Messages.u_code code -> Some u
  | Some _ | None -> None

let has_share b (share : Shamir_bytes.share) =
  List.exists (fun s -> s.Shamir_bytes.x = share.Shamir_bytes.x) b.shares

let conflict_known t serial theirs =
  List.exists (fun (s, _, th) -> s = serial && Dd_crypto.Ct.equal th theirs) t.ucert_conflicts

(* The reducer: the one place a durable field changes, live (through
   [commit]) and on replay (in [create]) alike. It never sends, and it
   is idempotent (duplicated protocol events — a re-received VOTE_P,
   say — coalesce). Transient collection state (endorsement gathering,
   waiting clients, live consensus objects) is deliberately not
   journaled: a restarted node abandons in-flight quorum collection and
   the client's retry restarts it. [own] is this node's share for an
   [R_sent_vote_p] when the live caller has already read it from the
   store; replay reads it here. *)
let apply_rec ?own t rc =
  let add_share b share = if not (has_share b share) then b.shares <- share :: b.shares in
  match rc with
  | R_vote_accepted { serial; code; part; pos } ->
    let b = ballot_rt t serial in
    t.votes_accepted <- t.votes_accepted + 1;
    b.part <- part;
    b.pos <- pos;
    b.endorsed <- Some code
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
    if endorse || b.status = Types.Not_voted then begin
      b.part <- part;
      b.pos <- pos
    end;
    if endorse then b.endorsed <- Some ucert.Messages.u_code;
    if b.ucert = None then b.ucert <- Some ucert;
    b.own_tag <- None;
    if b.status = Types.Not_voted then b.status <- Types.Pending ucert.Messages.u_code;
    Hashtbl.remove t.vsc.awaiting_recovery serial
  | R_sent_vote_p serial ->
    let b = ballot_rt t serial in
    if not b.sent_vote_p then begin
      b.sent_vote_p <- true;
      let share =
        match own with
        | Some share -> share
        | None -> fst (own_share t ~serial ~part:b.part ~pos:b.pos)
      in
      add_share b share
    end
  | R_share { serial; share } -> add_share (ballot_rt t serial) share
  | R_receipt { serial; code; receipt } ->
    let b = ballot_rt t serial in
    (match b.status with
     | Types.Voted _ -> ()
     | Types.Not_voted | Types.Pending _ ->
       b.status <- Types.Voted (code, receipt);
       t.receipts_issued <- t.receipts_issued + 1)
  | R_conflict { serial; ours; theirs } ->
    if not (conflict_known t serial theirs) then
      t.ucert_conflicts <- (serial, ours, theirs) :: t.ucert_conflicts
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

(* A durable transition: apply it, then journal it. Callers send only
   after this returns. *)
let commit ?sync ?own t rc =
  apply_rec ?own t rc;
  log_rec ?sync t rc

(* Callers pass a [code] backed by a UCERT they already verified: if we
   hold a certified code for the same serial and it differs, two valid
   uniqueness certificates exist — record the safety violation. *)
let note_conflict t serial (b : ballot_rt) ~code =
  match b.ucert with
  | Some u
    when not (Dd_crypto.Ct.equal u.Messages.u_code code || conflict_known t serial code) ->
    commit t (R_conflict { serial; ours = u.Messages.u_code; theirs = code })
  | Some _ | None -> ()

(* Reconstruct once, from the quorum of distinct shares. *)
let try_reconstruct t serial (b : ballot_rt) code =
  match b.status with
  | Types.Voted _ -> ()
  | Types.Not_voted | Types.Pending _ ->
    if List.length b.shares >= t.quorum then begin
      let selected =
        List.sort (fun a c -> compare a.Shamir_bytes.x c.Shamir_bytes.x) b.shares
        |> List.filteri (fun i _ -> i < t.quorum)
      in
      let receipt = Shamir_bytes.reconstruct ~threshold:t.quorum selected in
      commit t (R_receipt { serial; code; receipt });
      List.iter
        (fun (client, req) -> t.env.reply ~client ~req (Types.Receipt receipt))
        b.waiting_clients;
      b.waiting_clients <- []
    end

(* The VOTE_P disclosing our [share] and its EA tag for [b], with [ucert]. *)
let own_vote_p t ~serial ~code (b : ballot_rt) (share, share_tag) ucert =
  Messages.Vote_p
    { serial; vote_code = code; sender = t.env.me; part = b.part; pos = b.pos;
      share; share_tag; ucert }

(* Disclose our share, from [own] when the caller has already read our
   line: journaled and counted once (the receipt is reconstructed as
   soon as the quorum is in), then sent. Only a node with a voter
   waiting returns a receipt, so only it asks for shares, once per
   ballot: it sends its VOTE_P to every peer, with the certificate less
   that peer's own endorsement, which a signer completes from memory.
   That node is the responder when it forms the UCERT, or a node the
   voter retries at. Otherwise the node answers the sender of the
   VOTE_P it accepted ([reply_to]) with a SHARE, which names the code
   by its line. *)
let disclose_share ?own ?reply_to t ~serial ~code (b : ballot_rt) =
  let own =
    lazy (match own with Some o -> o | None -> own_share t ~serial ~part:b.part ~pos:b.pos)
  in
  if not b.sent_vote_p then commit ~own:(fst (Lazy.force own)) t (R_sent_vote_p serial);
  try_reconstruct t serial b code;
  match b.ucert with
  | Some u when b.waiting_clients <> [] && not b.asked ->
    b.asked <- true;
    List.iter
      (fun dst ->
         let endorsements = List.filter (fun (s, _) -> s <> dst) u.Messages.endorsements in
         t.env.send_vc ~dst
           (own_vote_p t ~serial ~code b (Lazy.force own) { u with Messages.endorsements }))
      (peers t)
  | Some _ | None ->
    Option.iter
      (fun dst ->
         if dst <> t.env.me then begin
           let share, share_tag = Lazy.force own in
           t.env.send_vc ~dst
             (Messages.Share
                { serial; sender = t.env.me; part = b.part; pos = b.pos; share; share_tag })
         end)
      reply_to

(* --- Algorithm 1: ON VOTE -------------------------------------------- *)

(* Become the responder for a code no one here has endorsed: the only
   VOTE path that creates ballot state, and only for a store-valid code. *)
let start_collecting t ~client ~req ~serial ~vote_code =
  match Ballot_store.verify_vote_code t.env.store ~serial ~vote_code with
  | None -> t.env.reply ~client ~req (Types.Rejected "invalid vote code")
  | Some (part, pos, _line) ->
    let b = ballot_rt t serial in
    commit t (R_vote_accepted { serial; code = vote_code; part; pos });
    b.collecting <- Some vote_code;
    b.waiting_clients <- (client, req) :: b.waiting_clients;
    (* endorse it ourselves, then gather the rest *)
    let body = Messages.endorsement_body ~election_id:(election_id t) ~serial ~code:vote_code in
    b.endorsements <- [ (t.env.me, Auth.sign t.env.keys body) ];
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
      if Dd_crypto.Ct.equal code vote_code then begin
        (* a retry here: ask every peer for its share, once *)
        b.waiting_clients <- (client, req) :: b.waiting_clients;
        disclose_share t ~serial ~code b
      end
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
        (* the endorsed code must be durable before our signature leaves:
           a restart that forgot it could sign a conflicting code and
           mint the adversary a second UCERT. A fresh code never meets
           a collection in flight (collecting [c] pins the endorsed
           code to [c]), so the reducer never moves a responder's
           part/pos. *)
        if fresh then commit t (R_endorsed { serial; code = vote_code; part; pos });
        let body = Messages.endorsement_body ~election_id:(election_id t) ~serial ~code:vote_code in
        let tag = Auth.sign t.env.keys body in
        if b.ucert = None then b.own_tag <- Some tag;
        t.env.send_vc ~dst:responder (Messages.Endorsement { serial; signer = t.env.me; tag })
    end
  end

(* --- ON ENDORSEMENT (responder side) ----------------------------------- *)

(* The tag must sign the code this node is collecting for [serial]. *)
let on_endorsement t ~signer ~serial ~tag =
  if within_hours t && serial_valid t serial then begin
    match Hashtbl.find_opt t.ballots serial with
    | None -> ()
    | Some b ->
    match b.collecting with
    | Some code when b.ucert = None ->
      let body = Messages.endorsement_body ~election_id:(election_id t) ~serial ~code in
      if verify_tag t ~signer body tag
      && not (List.mem_assoc signer b.endorsements) then begin
        b.endorsements <- (signer, tag) :: b.endorsements;
        if List.length b.endorsements >= t.quorum then begin
          let ucert =
            { Messages.u_serial = serial; Messages.u_code = code;
              Messages.endorsements = b.endorsements }
          in
          commit t (R_ucert { ucert; part = b.part; pos = b.pos; endorse = false });
          disclose_share t ~serial ~code b
        end
      end
    | _ -> ()
  end

(* --- ON VOTE_P and ON SHARE --------------------------------------------- *)

(* The UCERT a VOTE_P's share counts against. One this node holds for
   exactly this serial and code is enough, whatever the message
   carries. Otherwise the message's own, bound to its serial and code:
   with a quorum of signers, every tag verified; one short of a quorum
   and without this node, completed by the tag this node signed in
   [on_endorse] and never verified — only if it durably endorsed
   exactly this code and still holds that tag in memory. *)
let vote_p_ucert t ~serial ~vote_code (u : Messages.ucert) =
  match held_ucert t ~serial ~code:vote_code with
  | Some _ as held -> held
  | None ->
    if not (u.Messages.u_serial = serial && Dd_crypto.Ct.equal u.Messages.u_code vote_code)
    then None
    else if Messages.signers u >= t.quorum then (if verify_ucert t u then Some u else None)
    else
      match Hashtbl.find_opt t.ballots serial with
      | Some { endorsed = Some code; own_tag = Some tag; _ }
        when Dd_crypto.Ct.equal code vote_code
          && (not (List.mem_assoc t.env.me u.Messages.endorsements))
          && verify_ucert ~quorum:(t.quorum - 1) t u ->
        Some { u with Messages.endorsements = (t.env.me, tag) :: u.Messages.endorsements }
      | Some _ | None -> None

(* Ask [sender] for its full VOTE_P on [serial]: during Voting, never
   of ourselves. *)
let pull t ~sender serial =
  if t.phase = Voting && sender <> t.env.me then
    t.env.send_vc ~dst:sender
      (Messages.Recover_request { sender = t.env.me; serials = [ serial ] })

(* Count [sender]'s share of [code]'s line, which the caller matched
   against this node's own [code_line] ([own] is what that lookup
   read), then disclose ours. It must carry the EA's authenticator for
   (serial, part, pos, sender). A VOTE_P's sender is answered
   ([reply_to]); a SHARE is itself an answer. *)
let accept_share ?own ?reply_to t ~sender ~serial ~code ~part ~pos ~share ~share_tag ucert =
  if verify_receipt_share t ~serial ~part ~pos ~node:sender share share_tag then begin
    let b = ballot_rt t serial in
    (* only a ballot still [Not_voted] lacks a UCERT *)
    if b.ucert = None then commit t (R_ucert { ucert; part; pos; endorse = true });
    if not (has_share b share) then commit t (R_share { serial; share });
    disclose_share ?own ?reply_to t ~serial ~code b
  end

let on_vote_p t ~sender ~serial ~vote_code ~part ~pos ~share ~share_tag ~ucert =
  if within_hours t && serial_valid t serial then
  match vote_p_ucert t ~serial ~vote_code ucert with
  | None ->
    (* a certificate short of a quorum that this node cannot complete
       (it restarted since it endorsed, say): pull the whole one from
       the sender *)
    if Messages.signers ucert < t.quorum then pull t ~sender serial
  | Some ucert ->
    (match Hashtbl.find_opt t.ballots serial with
     | Some b -> note_conflict t serial b ~code:vote_code
     | None -> ());
    (* the sender's share counts only for the line this node holds the
       code on *)
    match code_line t ~serial ~code:vote_code with
    | Some (line_part, line_pos, own) when line_part = part && line_pos = pos ->
      accept_share ?own ~reply_to:sender t ~sender ~serial ~code:vote_code ~part ~pos ~share
        ~share_tag ucert
    | Some _ | None -> ()

(* A SHARE counts against the UCERT this node holds for [serial], and
   only if its (part, pos) is the line of that UCERT's code. Holding no
   UCERT, or one whose code is on another line (the sender may hold a
   conflicting certificate), the node pulls the sender's full VOTE_P,
   which names its code. A position outside the ballot names no line
   and is dropped. *)
let on_share t ~sender ~serial ~part ~pos ~share ~share_tag =
  if within_hours t && serial_valid t serial && pos >= 0 && pos < t.env.cfg.Types.m_options
  then
    let held = Option.bind (Hashtbl.find_opt t.ballots serial) (fun b -> b.ucert) in
    let line u = code_line t ~serial ~code:u.Messages.u_code in
    match held, Option.bind held line with
    | Some u, Some (line_part, line_pos, own) when line_part = part && line_pos = pos ->
      accept_share ?own t ~sender ~serial ~code:u.Messages.u_code ~part ~pos ~share ~share_tag u
    | _, _ -> pull t ~sender serial

(* --- Vote Set Consensus ------------------------------------------------ *)

(* What this node ANNOUNCEs: the code of every ballot it holds a UCERT
   for. *)
let known_codes t =
  Hashtbl.fold
    (fun serial (b : ballot_rt) acc ->
       match b.ucert, b.status with
       | Some _, (Types.Pending code | Types.Voted (code, _)) -> (serial, code) :: acc
       | _ -> acc)
    t.ballots []

(* The (serial, code) of every ballot consensus decided voted, sorted
   by serial, once the node has decided and recovered them all. *)
let agreed_set t =
  if not t.vsc.submitted then None
  else begin
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
    Some !set
  end

let send_submission t =
  let msg =
    Messages.Vote_set_submit
      { sender = t.env.me; set = Option.value (agreed_set t) ~default:[];
        msk_share = Ballot_store.msk_share t.env.store }
  in
  for bb = 0 to t.env.cfg.Types.nb - 1 do
    t.env.send_bb ~dst:bb msg
  done

let submit_to_bb t =
  if not t.vsc.submitted then begin
    commit t R_submitted;
    send_submission t
  end

let check_recovery_complete t =
  if t.vsc.consensus_started
  && t.vsc.decided_count = t.env.cfg.Types.n_voters
  && Hashtbl.length t.vsc.awaiting_recovery = 0
  then submit_to_bb t

let on_decide t slot value =
  commit t (R_decided { slot; value });
  if t.vsc.decided_count = t.env.cfg.Types.n_voters then begin
    let missing = Hashtbl.fold (fun s () acc -> s :: acc) t.vsc.awaiting_recovery [] in
    if missing <> [] then
      multicast t (Messages.Recover_request { sender = t.env.me; serials = missing });
    check_recovery_complete t
  end

let start_consensus t =
  if not t.vsc.consensus_started then begin
    (* durable before Binary_batch.start broadcasts anything: a restart
       must never re-enter an instance it already spoke in *)
    commit t R_consensus_started;
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

(* Adopt a recovered (serial, code, UCERT) if we were missing it. *)
let adopt_entry t (serial, code, ucert) =
  if serial_valid t serial
  && ucert.Messages.u_serial = serial
  && Dd_crypto.Ct.equal ucert.Messages.u_code code
  && verify_ucert t ucert
  then begin
    let b = ballot_rt t serial in
    note_conflict t serial b ~code;
    (* read first: committing the UCERT drops the serial from the set *)
    let awaited = Hashtbl.mem t.vsc.awaiting_recovery serial in
    if b.ucert = None then begin
      (* bind the ballot to the certified code's line: adopted during
         Voting, it discloses that line's share on the next VOTE_P *)
      let part, pos =
        match Ballot_store.verify_vote_code t.env.store ~serial ~vote_code:code with
        | Some (part, pos, _) -> (part, pos)
        | None -> (b.part, b.pos)
      in
      commit t (R_ucert { ucert; part; pos; endorse = false })
    end;
    if awaited then check_recovery_complete t
  end

let maybe_start_consensus t =
  if t.phase <> Voting
  && (not t.vsc.consensus_started)
  && List.length t.vsc.announce_senders >= t.quorum
  then start_consensus t

let start_vote_set_consensus t =
  if t.phase = Voting then begin
    if not (List.mem t.env.me t.vsc.announce_senders) then
      commit t (R_announce_from t.env.me);
    commit t R_phase_vsc;
    multicast t (Messages.Announce { sender = t.env.me; entries = known_codes t });
    maybe_start_consensus t
  end

let count_announcer t sender =
  (* liveness-only bookkeeping: losing it merely makes the recovered
     node wait for a re-announce, so skip the sync barrier (every UCERT
     adopted from this announcer carries a synced record before it) *)
  commit ~sync:false t (R_announce_from sender);
  maybe_start_consensus t

(* An ANNOUNCE is handled once per sender, and costs at most one pull:
   one RECOVER-REQUEST to the announcer naming, once each, the serials
   in the election whose announced code this node holds no UCERT on.
   The announcer counts towards starting consensus at once if nothing
   was pulled, else when its answer arrives, so this node enters
   consensus holding every UCERT the counted announcers hold — the
   input a receipted ballot needs (any Nv - fv announcers include an
   honest holder). An announcer that cannot back its codes is never
   counted; the Nv - fv honest ones suffice. Accepted before this
   node's own clock reaches election end too. *)
let on_announce t ~sender ~entries =
  if not (List.mem sender t.vsc.announce_senders || List.mem sender t.vsc.pulling) then begin
    let lacking =
      List.filter_map
        (fun (serial, code) ->
           if serial_valid t serial && held_ucert t ~serial ~code = None then Some serial
           else None)
        entries
      |> List.sort_uniq compare
    in
    if lacking = [] || sender = t.env.me then count_announcer t sender
    else begin
      t.vsc.pulling <- sender :: t.vsc.pulling;
      t.env.send_vc ~dst:sender
        (Messages.Recover_request { sender = t.env.me; serials = lacking })
    end
  end

let on_consensus t ~sender ~rbc_msg =
  match t.vsc.rbc with
  | Some r -> Rbc.on_message r ~from:sender rbc_msg
  | None ->
    (* a recovered node with [consensus_started] but no live instance
       must not buffer (it will never drain): it sat out this round *)
    if not t.vsc.consensus_started then
      t.vsc.pending_consensus <- (sender, rbc_msg) :: t.vsc.pending_consensus

(* A pull: during Voting, a peer that could not match our SHARE or
   complete our certificate gets our full VOTE_P, once per peer and
   serial (peers past the mask's width are answered every time). *)
let answer_pull t ~sender serial =
  match Hashtbl.find_opt t.ballots serial with
  | Some ({ ucert = Some u; sent_vote_p = true; _ } as b) when sender <> t.env.me ->
    let bit = if sender < Sys.int_size then 1 lsl sender else 0 in
    if b.answered land bit = 0 then begin
      b.answered <- b.answered lor bit;
      t.env.send_vc ~dst:sender
        (own_vote_p t ~serial ~code:u.Messages.u_code b
           (own_share t ~serial ~part:b.part ~pos:b.pos) u)
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

(* Answers are self-certifying (each entry's UCERT is verified), so they
   are adopted in any phase: a node whose clock lags pulls what an
   announcer holds while still in Voting, and enters its own VSC with
   it. An announcer's answer to this node's pull makes it count. *)
let on_recover_response t ~sender ~entries =
  List.iter (adopt_entry t) entries;
  if List.mem sender t.vsc.pulling then begin
    t.vsc.pulling <- List.filter (fun s -> s <> sender) t.vsc.pulling;
    count_announcer t sender
  end

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
  | Messages.Share { sender; _ } -> node sender
  | Messages.Announce { sender; _ } -> node sender
  | Messages.Consensus { sender; _ } -> node sender
  | Messages.Recover_request { sender; _ } -> node sender
  | Messages.Recover_response { sender; _ } -> node sender

let handle t (msg : Messages.vc_msg) =
  if not (peer_plausible t msg) then ()
  else
  match msg with
  | Messages.Vote { serial; vote_code; client; req } -> on_vote t ~client ~req ~serial ~vote_code
  | Messages.Endorse { serial; vote_code; responder } -> on_endorse t ~responder ~serial ~vote_code
  | Messages.Endorsement { serial; signer; tag } -> on_endorsement t ~signer ~serial ~tag
  | Messages.Vote_p { serial; vote_code; sender; part; pos; share; share_tag; ucert } ->
    on_vote_p t ~sender ~serial ~vote_code ~part ~pos ~share ~share_tag ~ucert
  | Messages.Share { serial; sender; part; pos; share; share_tag } ->
    on_share t ~sender ~serial ~part ~pos ~share ~share_tag
  | Messages.Announce { sender; entries } -> on_announce t ~sender ~entries
  | Messages.Consensus { sender; rbc } -> on_consensus t ~sender ~rbc_msg:rbc
  | Messages.Recover_request { sender; serials } -> on_recover_request t ~sender ~serials
  | Messages.Recover_response { sender; entries } -> on_recover_response t ~sender ~entries

(* Everything [handle] may check about [msg], as (signer, body, tag)
   triples: an ENDORSEMENT against the code this node is collecting,
   the EA's tag over a disclosed share, and every endorsement of a
   carried UCERT, bound to the certificate's own (serial, code) — the
   bytes [Messages.verify_ucert] checks. A carried certificate lacks
   the receiver's own endorsement when the receiver signed it, and that
   tag is never verified. *)
let obligations t (msg : Messages.vc_msg) =
  let election_id = election_id t in
  let ucert_obls (u : Messages.ucert) =
    let body =
      Messages.endorsement_body ~election_id ~serial:u.Messages.u_serial ~code:u.Messages.u_code
    in
    List.map (fun (signer, tag) -> (signer, body, tag)) u.Messages.endorsements
  in
  let share_obls ~serial ~part ~pos ~sender ~share = function
    | Some tag when Ballot_store.share_tags t.env.store ->
      [ (t.env.cfg.Types.nv,
         Messages.share_body ~election_id ~serial ~part ~pos ~node:sender ~share, tag) ]
    | Some _ | None -> []
  in
  match msg with
  | Messages.Endorsement { serial; signer; tag } ->
    (match Hashtbl.find_opt t.ballots serial with
     | Some { collecting = Some code; ucert = None; _ } ->
       [ (signer, Messages.endorsement_body ~election_id ~serial ~code, tag) ]
     | Some _ | None -> [])
  | Messages.Vote_p { serial; vote_code = _; sender; part; pos; share; share_tag; ucert } ->
    share_obls ~serial ~part ~pos ~sender ~share share_tag @ ucert_obls ucert
  | Messages.Share { serial; sender; part; pos; share; share_tag } ->
    share_obls ~serial ~part ~pos ~sender ~share share_tag
  | Messages.Recover_response { entries; _ } ->
    List.concat_map (fun (_, _, u) -> ucert_obls u) entries
  | Messages.Vote _ | Messages.Endorse _ | Messages.Announce _ | Messages.Consensus _
  | Messages.Recover_request _ -> []

(* --- observable state and the one constructor ------------------------------ *)

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

(* The one constructor: a fresh node on an empty (or absent) device,
   otherwise the node its journal describes. The journal's clean prefix
   replays through the reducer, and then duties whose sends the crash
   may have swallowed are re-issued; every receiver dedupes. A node
   that had started consensus does not rejoin the instance — the
   remaining quorum carries the round. *)
let create env =
  let t =
    { env;
      ballots = Hashtbl.create 1024;
      phase = Voting;
      vsc =
        { announce_senders = []; pulling = []; consensus_started = false; rbc = None; bb = None;
          rbc_seq = 0; decided_count = 0;
          decisions = [||];
          awaiting_recovery = Hashtbl.create 16; submitted = false;
          pending_consensus = [] };
      quorum = env.cfg.Types.nv - env.cfg.Types.fv;
      votes_accepted = 0;
      receipts_issued = 0;
      ucert_conflicts = [] }
  in
  Option.iter
    (fun device ->
       List.iter
         (fun payload ->
            (* framed but undecodable: skip, never crash *)
            Option.iter (apply_rec t) (decode_rec payload))
         (Wal.open_log device))
    env.durable;
  if t.vsc.submitted then send_submission t
  else if t.vsc.consensus_started then check_recovery_complete t
  else if t.phase = Vsc then begin
    multicast t (Messages.Announce { sender = t.env.me; entries = known_codes t });
    maybe_start_consensus t
  end;
  t

let phase t = t.phase
let ballot_count t = Hashtbl.length t.ballots
let votes_accepted t = t.votes_accepted
let receipts_issued t = t.receipts_issued
let ucert_conflicts t = t.ucert_conflicts
let decisions t = Array.copy t.vsc.decisions
