(** Bulletin Board node (Section III-G): an isolated public repository.
    BB nodes never contact each other; readers take the majority
    ({!Bb_reader}). Writes are verified: a final vote set publishes at
    [fv + 1] identical VC submissions, and ZK final moves at [ft + 1]
    identical trustee posts.

    Everything the node rebuilds from shares takes one threshold path:
    the master key from [Nv - fv] VC shares, checked against the
    committed [Hmsk]; each unused part's openings and the tally (the
    opening of Esum) from [ht] trustee shares, checked with
    {!Dd_commit.Unit_vector.verify_published}, the batch check the
    auditor runs on the same openings. Shares are keyed by poster (VC
    sender or trustee; the first post wins), so one poster counts once
    whatever share x it claims. Quorum subsets are searched in a fixed
    order, at most 64 per search, on every accepted post and, for the
    tally, again whenever Esum is computed — so one Byzantine poster
    cannot block a value, and tally shares posted before Esum exists
    still count. *)

module Elgamal = Dd_commit.Elgamal
module Elgamal_vss = Dd_vss.Elgamal_vss
module Ballot_proof = Dd_zkp.Ballot_proof

type published = {
  mutable final_set : (int * string) list option;
  mutable msk : string option;
  mutable opened_codes : (int * Types.part_id * int, string) Hashtbl.t option;
  unused_openings : (int * Types.part_id, Elgamal.opening array array) Hashtbl.t;
  zk_finals : (int * Types.part_id, Ballot_proof.final_move array) Hashtbl.t;
  mutable encrypted_tally : Elgamal.t array option;
  mutable tally : Types.tally option;
}

type t

(** The node serves its ballot table from [board] and takes the msk
    commitment from [init].

    With [?durable], every accepted write is appended to an input
    journal on the device before its effects become observable. The
    board is event-sourced: the node first replays the device's journal
    through the handlers (with no subscribers attached), so an empty
    device gives a fresh board and a written one a cold restart. *)
val create :
  ?durable:Dd_store.Device.t -> board:Board.t ->
  cfg:Types.config -> init:Ea.bb_init -> me:int ->
  unit -> t

(** Canonical encoding of the published state (sorted, deterministic),
    for recovery-equivalence checks. *)
val observable : t -> string

(** The (replicated) msk commitment this node checks against; the
    ballot table is {!board}. *)
val init : t -> Ea.bb_init

(** The ballot table this node serves from (see {!Board}). *)
val board : t -> Board.t

(** Everything this node currently publishes. *)
val published : t -> published

(** Observability hooks for harnesses. *)
val subscribe_final_set : t -> (t -> unit) -> unit
val subscribe_tally : t -> (t -> unit) -> unit

(** Locate a cast code's (part, position) once codes are opened. *)
val locate_code : t -> serial:int -> code:string -> (Types.part_id * int) option

(** Write paths. *)
val on_vote_set_submit :
  t -> sender:int -> set:(int * string) list -> msk_share:Dd_vss.Shamir_bytes.share -> unit
val on_trustee_post : t -> trustee:int -> Trustee_payload.t -> unit
val handle : t -> Messages.bb_msg -> unit
