(** Protocol messages of the VC and BB subsystems, with UCERT
    verification and the byte-level wire format (the role protobuf
    played in the paper's prototype). *)

(** A uniqueness certificate: [Nv - fv] endorsements binding one
    (serial, vote code). Once formed, no other code can ever be
    certified for the same ballot. *)
type ucert = {
  u_serial : int;
  u_code : string;
  endorsements : (int * Auth.tag) list;
}

(** The authenticated body of an ENDORSEMENT. *)
val endorsement_body : election_id:string -> serial:int -> code:string -> string

(** Check a UCERT: at least [quorum] distinct signers, every tag valid. *)
val verify_ucert : Auth.keys -> election_id:string -> quorum:int -> ucert -> bool

(** {!verify_ucert} with the per-tag check routed through [verify]
    instead of the built-in batch verification — the serving runtime
    passes its amortizing/caching verifier here (see [Vc_node.env]'s
    [verify_tag]). Without [?verify] this is exactly {!verify_ucert}. *)
val verify_ucert_with :
  ?verify:(signer:int -> string -> Auth.tag -> bool) ->
  Auth.keys -> election_id:string -> quorum:int -> ucert -> bool

(** The EA-authenticated body binding a receipt share to its line and
    holder. *)
val share_body :
  election_id:string -> serial:int -> part:Types.part_id -> pos:int -> node:int ->
  share:Dd_vss.Shamir_bytes.share -> string

type vc_msg =
  | Vote of { serial : int; vote_code : string; client : int; req : int }
  | Endorse of { serial : int; vote_code : string; responder : int }
  | Endorsement of { serial : int; vote_code : string; signer : int; tag : Auth.tag }
  | Vote_p of {
      serial : int;
      vote_code : string;
      sender : int;
      part : Types.part_id;
      pos : int;
      share : Dd_vss.Shamir_bytes.share;
      share_tag : Auth.tag option;
      ucert : ucert option;
          (** [Some] only from the UCERT's former (the responder) and in
              the answer to a pull; every other VOTE_P elides it. A
              receiver counts an elided VOTE_P's share only against a
              UCERT it holds for exactly this serial and code; one it
              cannot match makes it pull the UCERT from the sender
              ([Recover_request] during Voting). *)
    }
  | Announce_batch of { sender : int; entries : (int * string * ucert) list }
  | Consensus of { sender : int; rbc : Dd_consensus.Rbc.msg }
  | Recover_request of { sender : int; serials : int list }
  | Recover_response of { sender : int; entries : (int * string * ucert) list }

type bb_msg =
  | Vote_set_submit of {
      sender : int;
      set : (int * string) list;
      msk_share : Dd_vss.Shamir_bytes.share;
    }
  | Trustee_post of { trustee : int; payload : Trustee_payload.t }

(** Wire-size estimates for the network model. *)
val tag_size : Auth.tag -> int
val ucert_size : ucert -> int
val vc_msg_size : vc_msg -> int
val bb_msg_size : bb_msg -> int

(** Byte-level encoding of every VC message; the decoder is total
    (malformed frames yield [None], never an exception).

    A VOTE_P has two encodings. Discriminant 3 carries the UCERT after
    the share tag; discriminant 8 is the same message with the UCERT
    elided ([ucert = None]), with no option byte. The VSC entries of
    ANNOUNCE and RECOVER-RESPONSE write each certificate's endorsements
    only: the decoder binds the UCERT to the entry's (serial, code). *)
val encode_vc_msg : vc_msg -> string
val decode_vc_msg : string -> vc_msg option

(** Byte-level encoding of the BB write paths (total decoder), for the
    BB nodes' durable input journal. *)
val encode_bb_msg : bb_msg -> string
val decode_bb_msg : string -> bb_msg option

(** Building blocks of the wire format, exported for the node layer's
    durable-state codecs (the VC and trustee journals). The
    [get_*] readers raise {!Dd_codec.Wire.Malformed} on bad input — use
    them under [Dd_codec.Wire.decode]. *)
val put_tag : Dd_codec.Wire.writer -> Auth.tag -> unit
val get_tag : Dd_codec.Wire.reader -> Auth.tag
val put_share : Dd_codec.Wire.writer -> Dd_vss.Shamir_bytes.share -> unit
val get_share : Dd_codec.Wire.reader -> Dd_vss.Shamir_bytes.share
val put_ucert : Dd_codec.Wire.writer -> ucert -> unit
val get_ucert : Dd_codec.Wire.reader -> ucert
val put_part : Dd_codec.Wire.writer -> Types.part_id -> unit
val get_part : Dd_codec.Wire.reader -> Types.part_id
val put_vss_share : Dd_codec.Wire.writer -> Dd_vss.Elgamal_vss.share -> unit

(** Rejects a [msg] or [rand] longer than 32 bytes or not below the
    group order. *)
val get_vss_share : Dd_codec.Wire.reader -> Dd_vss.Elgamal_vss.share

(** A VSC entry: serial, code, then the UCERT's endorsements alone
    ({!get_entry} fills [u_serial]/[u_code] in from the entry). *)
val put_entry : Dd_codec.Wire.writer -> int * string * ucert -> unit
val get_entry : Dd_codec.Wire.reader -> int * string * ucert
