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

(** The number of distinct signers among a UCERT's endorsements. *)
val signers : ucert -> int

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
  | Endorsement of { serial : int; signer : int; tag : Auth.tag }
      (** The answer to an [Endorse]: the signer's tag over the code
          the responder is collecting for [serial], which the
          responder holds and so is not repeated. *)
  | Vote_p of {
      serial : int;
      vote_code : string;
      sender : int;
      part : Types.part_id;
      pos : int;
      share : Dd_vss.Shamir_bytes.share;
      share_tag : Auth.tag option;
      ucert : ucert;
          (** Bound to this message's (serial, code). Only a node that
              asks for shares (the UCERT's former, or a node a voter
              retries at) and the answer to a pull send a VOTE_P; a
              [Share] answers a VOTE_P. The asking node sends each peer
              that signed the certificate the certificate without that
              peer's own endorsement; the peer completes it with the
              tag it signed and keeps in memory.
              The answer to a pull carries the whole certificate. A
              certificate short of a quorum that the receiver cannot
              complete makes it pull the UCERT from the sender
              ([Recover_request] during Voting). *)
    }
  | Share of {
      serial : int;
      sender : int;
      part : Types.part_id;
      pos : int;
      share : Dd_vss.Shamir_bytes.share;
      share_tag : Auth.tag option;
    }
      (** A receipt-share disclosure without code or UCERT: the answer
          to a VOTE_P, sent to that VOTE_P's sender only. The (part, pos)
          line names the code: the receiver counts the share only if
          it holds a UCERT for [serial] whose code is on that line.
          Holding none, or one for a code on another line, it pulls
          the UCERT from the sender, whose full VOTE_P then names its
          code. *)
  | Announce of { sender : int; entries : (int * string) list }
      (** Vote Set Consensus ANNOUNCE: the (serial, code) of every
          ballot the sender holds a UCERT for, without the UCERTs. A
          receiver pulls the certificates it lacks with
          [Recover_request], answered by [Recover_response]. *)
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

(** Byte-level encoding of every VC message; the decoder is total
    (malformed frames yield [None], never an exception).

    Discriminants: 0 VOTE, 1 ENDORSE, 11 ENDORSEMENT (serial, signer,
    tag: no code), 10 VOTE_P, 12 SHARE (a VOTE_P's fields without the
    code and the UCERT), 9 ANNOUNCE ((serial, code) pairs only),
    5 CONSENSUS, 6 RECOVER-REQUEST, 7 RECOVER-RESPONSE. A VOTE_P writes
    the UCERT's endorsement list after the share tag, and the decoder
    binds the certificate to the message's own (serial, code); the
    entries of RECOVER-RESPONSE do the same with each entry's (serial,
    code). Retired and not decoded: 2 (an ENDORSEMENT that repeated
    the code), 3 (a VOTE_P whose UCERT repeated its binding), 4, and
    8 (a VOTE_P with its UCERT elided, now [Share]). *)
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
