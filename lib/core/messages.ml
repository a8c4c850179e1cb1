(* Protocol messages and their byte-level wire format. The simulator
   delivers them as typed values inside delivery closures, and its
   network model samples a latency per message, not per byte. The
   serving runtime sends them as bytes ([encode_vc_msg],
   [encode_bb_msg], framed by Mux), and a board journals the messages
   it accepts in the same encoding. *)

(* A uniqueness certificate: Nv - fv endorsements binding (serial,
   vote-code). Its formation guarantees no second vote code can ever be
   certified for the same ballot. *)
type ucert = {
  u_serial : int;
  u_code : string;
  endorsements : (int * Auth.tag) list;  (* signer, tag *)
}

let endorsement_body ~election_id ~serial ~code =
  String.concat "|" [ "endorse"; election_id; string_of_int serial; code ]

let signers u = List.length (List.sort_uniq compare (List.map fst u.endorsements))

(* Verify a UCERT from node [keys.me]'s point of view. [?verify] lets
   a host runtime substitute its own per-tag verifier (amortized over
   many concurrent messages); the default batches within this one
   certificate. *)
let verify_ucert_with ?verify keys ~election_id ~quorum (u : ucert) =
  let body = endorsement_body ~election_id ~serial:u.u_serial ~code:u.u_code in
  signers u >= quorum
  && (match verify with
      | None ->
        Auth.verify_batch keys
          (List.map (fun (signer, tag) -> (signer, body, tag)) u.endorsements)
      | Some f -> List.for_all (fun (signer, tag) -> f ~signer body tag) u.endorsements)

let verify_ucert keys ~election_id ~quorum u =
  verify_ucert_with keys ~election_id ~quorum u

let share_body ~election_id ~serial ~part ~pos ~node ~(share : Dd_vss.Shamir_bytes.share) =
  String.concat "|"
    [ "share"; election_id; string_of_int serial; Types.part_label part;
      string_of_int pos; string_of_int node; string_of_int share.Dd_vss.Shamir_bytes.x;
      share.Dd_vss.Shamir_bytes.data ]

type vc_msg =
  | Vote of { serial : int; vote_code : string; client : int; req : int }
  | Endorse of { serial : int; vote_code : string; responder : int }
  (* the responder knows the code it is collecting for [serial] *)
  | Endorsement of { serial : int; signer : int; tag : Auth.tag }
  | Vote_p of {
      serial : int;
      vote_code : string;
      sender : int;
      part : Types.part_id;
      pos : int;
      share : Dd_vss.Shamir_bytes.share;
      share_tag : Auth.tag option;  (* the EA's authenticator over the share *)
      (* from a node that asks for shares (less the receiver's own
         endorsement) and in the answer to a pull *)
      ucert : ucert;
    }
  (* a VOTE_P for a peer that holds the UCERT: the (part, pos) line
     names the code *)
  | Share of {
      serial : int;
      sender : int;
      part : Types.part_id;
      pos : int;
      share : Dd_vss.Shamir_bytes.share;
      share_tag : Auth.tag option;
    }
  (* the VSC ANNOUNCE: codes only; a peer lacking a UCERT pulls it *)
  | Announce of { sender : int; entries : (int * string) list }
  | Consensus of { sender : int; rbc : Dd_consensus.Rbc.msg }
  | Recover_request of { sender : int; serials : int list }
  | Recover_response of { sender : int; entries : (int * string * ucert) list }

type bb_msg =
  | Vote_set_submit of {
      sender : int;                       (* VC node id *)
      set : (int * string) list;          (* (serial, vote code), sorted by serial *)
      msk_share : Dd_vss.Shamir_bytes.share;
    }
  | Trustee_post of { trustee : int; payload : Trustee_payload.t }

(* --- wire format --------------------------------------------------------- *)
(* Byte-level encodings for every VC protocol message, the role Google
   protobuf played in the prototype. Decoders are total: any malformed
   frame decodes to [None]. *)

module Wire = Dd_codec.Wire

let put_tag w = function
  | Auth.Schnorr_tag s ->
    Wire.put_varint w 0;
    Wire.put_bytes w (Dd_sig.Schnorr.encode s)
  | Auth.Mac_tag macs ->
    Wire.put_varint w 1;
    Wire.put_array w Wire.put_bytes macs

let get_tag r =
  match Wire.get_varint r with
  | 0 ->
    (match Dd_sig.Schnorr.decode (Wire.get_bytes r) with
     | Some s -> Auth.Schnorr_tag s
     | None -> raise (Wire.Malformed "tag: bad signature"))
  | 1 -> Auth.Mac_tag (Wire.get_array r Wire.get_bytes)
  | _ -> raise (Wire.Malformed "tag: bad scheme")

let put_share w (sh : Dd_vss.Shamir_bytes.share) =
  Wire.put_varint w sh.Dd_vss.Shamir_bytes.x;
  Wire.put_bytes w sh.Dd_vss.Shamir_bytes.data

let get_share r =
  let x = Wire.get_varint r in
  let data = Wire.get_bytes r in
  { Dd_vss.Shamir_bytes.x; Dd_vss.Shamir_bytes.data }

let put_endorsements w endorsements =
  Wire.put_list w
    (fun w (signer, tag) -> Wire.put_varint w signer; put_tag w tag)
    endorsements

let get_endorsements r =
  Wire.get_list r (fun r ->
      let signer = Wire.get_varint r in
      let tag = get_tag r in
      (signer, tag))

let put_ucert w (u : ucert) =
  Wire.put_varint w u.u_serial;
  Wire.put_bytes w u.u_code;
  put_endorsements w u.endorsements

let get_ucert r =
  let u_serial = Wire.get_varint r in
  let u_code = Wire.get_bytes r in
  let endorsements = get_endorsements r in
  { u_serial; u_code; endorsements }

let put_part w part = Wire.put_varint w (Types.part_index part)

let get_part r =
  match Wire.get_varint r with
  | 0 -> Types.A
  | 1 -> Types.B
  | _ -> raise (Wire.Malformed "part: bad index")

(* A certificate carried by a message that names its (serial, code) —
   a RECOVER-RESPONSE entry or a VOTE_P — writes its endorsements only,
   and the decoder binds it to the carrier's (serial, code). *)
let get_bound_ucert r ~serial ~code =
  { u_serial = serial; u_code = code; endorsements = get_endorsements r }

let put_entry w (serial, code, (u : ucert)) =
  Wire.put_varint w serial;
  Wire.put_bytes w code;
  put_endorsements w u.endorsements

let get_entry r =
  let serial = Wire.get_varint r in
  let code = Wire.get_bytes r in
  (serial, code, get_bound_ucert r ~serial ~code)

(* An ANNOUNCE entry: the (serial, code) alone. *)
let put_code_entry w (serial, code) =
  Wire.put_varint w serial;
  Wire.put_bytes w code

let get_code_entry r =
  let serial = Wire.get_varint r in
  let code = Wire.get_bytes r in
  (serial, code)

let encode_vc_msg (msg : vc_msg) =
  let w = Wire.writer () in
  (match msg with
   | Vote { serial; vote_code; client; req } ->
     Wire.put_varint w 0;
     Wire.put_varint w serial; Wire.put_bytes w vote_code;
     Wire.put_varint w client; Wire.put_varint w req
   | Endorse { serial; vote_code; responder } ->
     Wire.put_varint w 1;
     Wire.put_varint w serial; Wire.put_bytes w vote_code; Wire.put_varint w responder
   | Endorsement { serial; signer; tag } ->
     Wire.put_varint w 11;
     Wire.put_varint w serial; Wire.put_varint w signer; put_tag w tag
   | Vote_p { serial; vote_code; sender; part; pos; share; share_tag; ucert } ->
     Wire.put_varint w 10;
     Wire.put_varint w serial; Wire.put_bytes w vote_code; Wire.put_varint w sender;
     put_part w part; Wire.put_varint w pos; put_share w share;
     Wire.put_option w put_tag share_tag;
     put_endorsements w ucert.endorsements
   | Share { serial; sender; part; pos; share; share_tag } ->
     Wire.put_varint w 12;
     Wire.put_varint w serial; Wire.put_varint w sender;
     put_part w part; Wire.put_varint w pos; put_share w share;
     Wire.put_option w put_tag share_tag
   | Announce { sender; entries } ->
     Wire.put_varint w 9;
     Wire.put_varint w sender;
     Wire.put_list w put_code_entry entries
   | Consensus { sender; rbc } ->
     Wire.put_varint w 5;
     Wire.put_varint w sender;
     Wire.put_bytes w (Dd_consensus.Rbc.encode_msg rbc)
   | Recover_request { sender; serials } ->
     Wire.put_varint w 6;
     Wire.put_varint w sender;
     Wire.put_list w Wire.put_varint serials
   | Recover_response { sender; entries } ->
     Wire.put_varint w 7;
     Wire.put_varint w sender;
     Wire.put_list w put_entry entries);
  Wire.contents w

let decode_vc_msg frame =
  Wire.decode frame (fun r ->
      match Wire.get_varint r with
      | 0 ->
        let serial = Wire.get_varint r in
        let vote_code = Wire.get_bytes r in
        let client = Wire.get_varint r in
        let req = Wire.get_varint r in
        Vote { serial; vote_code; client; req }
      | 1 ->
        let serial = Wire.get_varint r in
        let vote_code = Wire.get_bytes r in
        let responder = Wire.get_varint r in
        Endorse { serial; vote_code; responder }
      | 11 ->
        let serial = Wire.get_varint r in
        let signer = Wire.get_varint r in
        let tag = get_tag r in
        Endorsement { serial; signer; tag }
      | 10 ->
        let serial = Wire.get_varint r in
        let vote_code = Wire.get_bytes r in
        let sender = Wire.get_varint r in
        let part = get_part r in
        let pos = Wire.get_varint r in
        let share = get_share r in
        let share_tag = Wire.get_option r get_tag in
        let ucert = get_bound_ucert r ~serial ~code:vote_code in
        Vote_p { serial; vote_code; sender; part; pos; share; share_tag; ucert }
      | 12 ->
        let serial = Wire.get_varint r in
        let sender = Wire.get_varint r in
        let part = get_part r in
        let pos = Wire.get_varint r in
        let share = get_share r in
        let share_tag = Wire.get_option r get_tag in
        Share { serial; sender; part; pos; share; share_tag }
      | 5 ->
        let sender = Wire.get_varint r in
        (match Dd_consensus.Rbc.decode_msg (Wire.get_bytes r) with
         | Some rbc -> Consensus { sender; rbc }
         | None -> raise (Wire.Malformed "consensus: bad rbc frame"))
      | 6 ->
        let sender = Wire.get_varint r in
        let serials = Wire.get_list r Wire.get_varint in
        Recover_request { sender; serials }
      | 7 ->
        let sender = Wire.get_varint r in
        let entries = Wire.get_list r get_entry in
        Recover_response { sender; entries }
      | 9 ->
        let sender = Wire.get_varint r in
        let entries = Wire.get_list r get_code_entry in
        Announce { sender; entries }
      | _ -> raise (Wire.Malformed "vc_msg: unknown discriminant"))

(* --- BB wire format ------------------------------------------------------ *)
(* Byte-level encodings of the BB write paths, used by the BB nodes'
   durable input journal (Dd_store): a cold-restarted board replays
   exactly the verified submissions it accepted. *)

module Sc = Dd_bignum.Sc

let put_scalar w n = Wire.put_bytes w (Sc.to_bytes_trimmed n)

(* A VSS scalar comes from a trustee post or segment: canonical only. *)
let get_scalar r =
  match Sc.of_bytes (Wire.get_bytes r) with
  | Some k -> k
  | None -> raise (Wire.Malformed "vss share: scalar not canonical")

let put_vss_share w (sh : Dd_vss.Elgamal_vss.share) =
  Wire.put_varint w sh.Dd_vss.Elgamal_vss.x;
  put_scalar w sh.Dd_vss.Elgamal_vss.msg;
  put_scalar w sh.Dd_vss.Elgamal_vss.rand

let get_vss_share r =
  let x = Wire.get_varint r in
  let msg = get_scalar r in
  let rand = get_scalar r in
  { Dd_vss.Elgamal_vss.x; msg; rand }

let put_final_move w fm = Wire.put_bytes w (Dd_zkp.Ballot_proof.encode_final_move fm)

let get_final_move r =
  match Dd_zkp.Ballot_proof.decode_final_move (Wire.get_bytes r) with
  | Some fm -> fm
  | None -> raise (Wire.Malformed "final_move: bad length")

let put_trustee_payload w (p : Trustee_payload.t) =
  match p with
  | Trustee_payload.Openings entries ->
    Wire.put_varint w 0;
    Wire.put_list w
      (fun w (e : Trustee_payload.opening_entry) ->
         Wire.put_varint w e.Trustee_payload.o_serial;
         put_part w e.Trustee_payload.o_part;
         Wire.put_array w (fun w row -> Wire.put_array w put_vss_share row)
           e.Trustee_payload.o_shares)
      entries
  | Trustee_payload.Zk_final entries ->
    Wire.put_varint w 1;
    Wire.put_list w
      (fun w (e : Trustee_payload.zk_entry) ->
         Wire.put_varint w e.Trustee_payload.z_serial;
         put_part w e.Trustee_payload.z_part;
         Wire.put_array w put_final_move e.Trustee_payload.z_finals)
      entries
  | Trustee_payload.Tally_share { shares; ballots_counted } ->
    Wire.put_varint w 2;
    Wire.put_array w put_vss_share shares;
    Wire.put_varint w ballots_counted

let get_trustee_payload r =
  match Wire.get_varint r with
  | 0 ->
    Trustee_payload.Openings
      (Wire.get_list r (fun r ->
           let o_serial = Wire.get_varint r in
           let o_part = get_part r in
           let o_shares = Wire.get_array r (fun r -> Wire.get_array r get_vss_share) in
           { Trustee_payload.o_serial; o_part; o_shares }))
  | 1 ->
    Trustee_payload.Zk_final
      (Wire.get_list r (fun r ->
           let z_serial = Wire.get_varint r in
           let z_part = get_part r in
           let z_finals = Wire.get_array r get_final_move in
           { Trustee_payload.z_serial; z_part; z_finals }))
  | 2 ->
    let shares = Wire.get_array r get_vss_share in
    let ballots_counted = Wire.get_varint r in
    Trustee_payload.Tally_share { shares; ballots_counted }
  | _ -> raise (Wire.Malformed "trustee_payload: unknown discriminant")

let encode_bb_msg (msg : bb_msg) =
  let w = Wire.writer () in
  (match msg with
   | Vote_set_submit { sender; set; msk_share } ->
     Wire.put_varint w 0;
     Wire.put_varint w sender;
     Wire.put_list w
       (fun w (serial, code) -> Wire.put_varint w serial; Wire.put_bytes w code)
       set;
     put_share w msk_share
   | Trustee_post { trustee; payload } ->
     Wire.put_varint w 1;
     Wire.put_varint w trustee;
     put_trustee_payload w payload);
  Wire.contents w

let decode_bb_msg frame =
  Wire.decode frame (fun r ->
      match Wire.get_varint r with
      | 0 ->
        let sender = Wire.get_varint r in
        let set =
          Wire.get_list r (fun r ->
              let serial = Wire.get_varint r in
              let code = Wire.get_bytes r in
              (serial, code))
        in
        let msk_share = get_share r in
        Vote_set_submit { sender; set; msk_share }
      | 1 ->
        let trustee = Wire.get_varint r in
        let payload = get_trustee_payload r in
        Trustee_post { trustee; payload }
      | _ -> raise (Wire.Malformed "bb_msg: unknown discriminant"))
