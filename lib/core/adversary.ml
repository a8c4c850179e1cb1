(* Byzantine Vote Collector behaviors for the chaos harness.

   An adversary wraps an honest [Vc_node] (Byzantine nodes know the
   protocol — the strongest adversary runs it and deviates): incoming
   messages pass through [handle_incoming], which may act on them
   before forwarding to the wrapped honest logic, and every outgoing
   message passes through [transform_outgoing], which may corrupt or
   withhold it. All randomness comes from a seeded DRBG, so adversarial
   schedules stay pure functions of the run seed.

   The behaviors target the paper's safety arguments directly:

   - [Equivocate] attacks UCERT uniqueness (Section III-D): it signs an
     ENDORSEMENT for *every* store-valid vote code it sees, and runs a
     shadow responder per (serial, code) trying to assemble conflicting
     uniqueness certificates. With <= fv equivocators this must fail —
     two quorums of Nv - fv intersect in >= fv + 1 nodes, so some
     honest node would have to endorse both codes, and honest nodes
     endorse at most one code per ballot.
   - [Corrupt_shares] flips bytes in disclosed VOTE_P receipt shares,
     attacking receipt correctness; the EA's per-share authenticators
     (checked in full fidelity) make the corruption detectable.
   - [Misplaced_shares] discloses, in place of its share for the voted
     line, its genuine share of another line of the same part, with that
     line's valid EA authenticator: only a receiver that checks the line
     against its own lookup of the code rejects it.
   - [Byzantine_consensus] drops or corrupts Bracha traffic and
     withholds RECOVER-RESPONSEs, so the codes it announces are never
     backed, attacking Vote Set Consensus liveness and agreement.
   - [Malformed_wire] re-encodes every outgoing message and flips one
     random byte: frames the codec rejects model malformed input;
     frames that still decode model well-formed-but-wrong content. *)

module Drbg = Dd_crypto.Drbg
module Shamir_bytes = Dd_vss.Shamir_bytes
module Rbc = Dd_consensus.Rbc

type behavior =
  | Silent
  | Drop_receipts
  | Equivocate
  | Corrupt_shares
  | Misplaced_shares
  | Byzantine_consensus
  | Malformed_wire

(* Does the behavior answer voters at all? *)
let suppresses_replies = function
  | Silent | Drop_receipts -> true
  | Equivocate | Corrupt_shares | Misplaced_shares | Byzantine_consensus | Malformed_wire ->
    false

(* Does the behavior participate in Vote Set Consensus at election end?
   (A silent node is indistinguishable from a crashed one.) *)
let runs_vsc = function
  | Silent -> false
  | Drop_receipts | Equivocate | Corrupt_shares | Misplaced_shares | Byzantine_consensus
  | Malformed_wire -> true

(* Shadow responder state for one (serial, code) the equivocator is
   trying to certify in parallel with whatever the honest nodes do. *)
type shadow = {
  sh_part : Types.part_id;
  sh_pos : int;
  mutable sh_sigs : (int * Auth.tag) list;
  mutable sh_done : bool;
}

type t = {
  behavior : behavior;
  me : int;
  cfg : Types.config;
  keys : Auth.keys;
  store : Ballot_store.t;
  rng : Drbg.t;
  send_vc : dst:int -> Messages.vc_msg -> unit;
  shadows : (int * string, shadow) Hashtbl.t;
}

let create ~behavior ~me ~cfg ~keys ~store ~rng ~send_vc =
  { behavior; me; cfg; keys; store; rng; send_vc;
    shadows = Hashtbl.create 16 }

let quorum t = t.cfg.Types.nv - t.cfg.Types.fv

let peers t =
  List.init t.cfg.Types.nv (fun i -> i) |> List.filter (fun i -> i <> t.me)

let multicast t msg = List.iter (fun dst -> t.send_vc ~dst msg) (peers t)

let sign_code t ~serial ~code =
  Auth.sign t.keys
    (Messages.endorsement_body ~election_id:t.cfg.Types.election_id ~serial ~code)

(* --- Equivocate -------------------------------------------------------- *)

(* Endorse every store-valid code, no matter what we endorsed before:
   the one deviation an equivocator needs. *)
let endorse_any t ~responder ~serial ~vote_code =
  match Ballot_store.verify_vote_code t.store ~serial ~vote_code with
  | None -> ()
  | Some (_, _, _) ->
    t.send_vc ~dst:responder
      (Messages.Endorsement
         { serial; signer = t.me; tag = sign_code t ~serial ~code:vote_code })

(* Act as a parallel responder for this (serial, code): self-sign and
   solicit endorsements, hoping to complete a conflicting UCERT. *)
let shadow_start t ~serial ~vote_code =
  if not (Hashtbl.mem t.shadows (serial, vote_code)) then
    match Ballot_store.verify_vote_code t.store ~serial ~vote_code with
    | None -> ()
    | Some (part, pos, _) ->
      Hashtbl.replace t.shadows (serial, vote_code)
        { sh_part = part; sh_pos = pos; sh_done = false;
          sh_sigs = [ (t.me, sign_code t ~serial ~code:vote_code) ] };
      multicast t (Messages.Endorse { serial; vote_code; responder = t.me })

(* A peer answered one of our shadow solicitations: the ENDORSEMENT
   names no code, so find the shadow for [serial] whose code the tag
   signs. Collect the signature, and at quorum publish the conflicting
   UCERT via VOTE_P with our genuine receipt share attached (so honest
   nodes accept and propagate it). *)
let shadow_endorsement t ~serial ~signer ~tag =
  let signs code =
    Auth.verify t.keys ~signer
      (Messages.endorsement_body ~election_id:t.cfg.Types.election_id ~serial ~code)
      tag
  in
  let signed =
    Hashtbl.fold
      (fun (s, code) sh found ->
         if Option.is_none found && s = serial && signs code then Some (code, sh) else found)
      t.shadows None
  in
  match signed with
  | None -> ()
  | Some (vote_code, sh) ->
    if (not sh.sh_done) && not (List.mem_assoc signer sh.sh_sigs) then begin
      sh.sh_sigs <- (signer, tag) :: sh.sh_sigs;
      if List.length sh.sh_sigs >= quorum t then begin
        sh.sh_done <- true;
        let ucert =
          { Messages.u_serial = serial; Messages.u_code = vote_code;
            Messages.endorsements = sh.sh_sigs }
        in
        let lines = Ballot_store.lines t.store ~serial ~part:sh.sh_part in
        if sh.sh_pos >= 0 && sh.sh_pos < Array.length lines then begin
          let line = lines.(sh.sh_pos) in
          multicast t
            (Messages.Vote_p
               { serial; vote_code; sender = t.me; part = sh.sh_part;
                 pos = sh.sh_pos; share = line.Types.receipt_share;
                 share_tag = line.Types.share_tag; ucert })
        end
      end
    end

let equivocate_on t (msg : Messages.vc_msg) =
  match msg with
  | Messages.Vote { serial; vote_code; client = _; req = _ } ->
    shadow_start t ~serial ~vote_code
  | Messages.Endorse { serial; vote_code; responder } ->
    endorse_any t ~responder ~serial ~vote_code
  | Messages.Endorsement { serial; signer; tag } -> shadow_endorsement t ~serial ~signer ~tag
  | Messages.Vote_p _ | Messages.Share _ | Messages.Announce _ | Messages.Consensus _
  | Messages.Recover_request _ | Messages.Recover_response _ -> ()

(* --- incoming ---------------------------------------------------------- *)

let handle_incoming t ~honest (msg : Messages.vc_msg) =
  match t.behavior with
  | Silent -> ()    (* receives everything, does nothing *)
  | Equivocate -> equivocate_on t msg; honest msg
  | Drop_receipts | Corrupt_shares | Misplaced_shares | Byzantine_consensus
  | Malformed_wire ->
    honest msg

(* --- outgoing ---------------------------------------------------------- *)

let flip_byte rng s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Drbg.int rng n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Drbg.int rng 255)));
    Bytes.to_string b
  end

let transform_outgoing t ~dst:_ (msg : Messages.vc_msg) :
  Messages.vc_msg option =
  match t.behavior with
  | Silent -> None
  | Drop_receipts | Equivocate -> Some msg
  | Corrupt_shares ->
    let flip (share : Shamir_bytes.share) =
      { share with Shamir_bytes.data = flip_byte t.rng share.Shamir_bytes.data }
    in
    (match msg with
     | Messages.Vote_p p -> Some (Messages.Vote_p { p with share = flip p.share })
     | Messages.Share p -> Some (Messages.Share { p with share = flip p.share })
     | Messages.Vote _ | Messages.Endorse _ | Messages.Endorsement _
     | Messages.Announce _ | Messages.Consensus _
     | Messages.Recover_request _ | Messages.Recover_response _ -> Some msg)
  | Misplaced_shares ->
    (* [with_line] rebuilds the message on another line of the part:
       its position, share and EA tag *)
    let misplace ~serial ~part ~pos with_line =
      let lines = Ballot_store.lines t.store ~serial ~part in
      let m = Array.length lines in
      if m < 2 then Some msg
      else begin
        let pos = (pos + 1 + Drbg.int t.rng (m - 1)) mod m in
        let line = lines.(pos) in
        Some (with_line pos line.Types.receipt_share line.Types.share_tag)
      end
    in
    (match msg with
     | Messages.Vote_p p ->
       misplace ~serial:p.serial ~part:p.part ~pos:p.pos (fun pos share share_tag ->
           Messages.Vote_p { p with pos; share; share_tag })
     | Messages.Share p ->
       misplace ~serial:p.serial ~part:p.part ~pos:p.pos (fun pos share share_tag ->
           Messages.Share { p with pos; share; share_tag })
     | Messages.Vote _ | Messages.Endorse _ | Messages.Endorsement _
     | Messages.Announce _ | Messages.Consensus _
     | Messages.Recover_request _ | Messages.Recover_response _ -> Some msg)
  | Byzantine_consensus ->
    (match msg with
     | Messages.Consensus { sender; rbc } ->
       (match Drbg.int t.rng 3 with
        | 0 -> None   (* withhold the Bracha step *)
        | 1 ->
          (* per-destination corruption: consensus-level equivocation *)
          Some (Messages.Consensus
                  { sender;
                    rbc = { rbc with Rbc.payload = flip_byte t.rng rbc.Rbc.payload } })
        | _ -> Some msg)
     | Messages.Recover_response _ -> None   (* withhold recovery data *)
     | Messages.Recover_request { sender; serials } ->
       (* bogus request: ask about serials that do not exist *)
       let serials =
         List.map (fun s -> s + t.cfg.Types.n_voters + Drbg.int t.rng 1000) serials
       in
       Some (Messages.Recover_request { sender; serials })
     | Messages.Vote _ | Messages.Endorse _ | Messages.Endorsement _
     | Messages.Vote_p _ | Messages.Share _ | Messages.Announce _ -> Some msg)
  | Malformed_wire ->
    let frame = Messages.encode_vc_msg msg in
    (match Messages.decode_vc_msg (flip_byte t.rng frame) with
     | Some garbled -> Some garbled  (* decodable garbage: handlers must cope *)
     | None -> None)                 (* the peer's codec rejects the frame *)
