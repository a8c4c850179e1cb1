(** What trustees post to the BB after the election (Section III-H):
    unused-part openings (the audit material), ZK final moves for used
    parts, and one share of the opening of the homomorphic tally. *)

module Elgamal_vss = Dd_vss.Elgamal_vss

type opening_entry = {
  o_serial : int;
  o_part : Types.part_id;
  o_shares : Elgamal_vss.share array array;  (** position -> coordinate *)
}

type zk_entry = {
  z_serial : int;
  z_part : Types.part_id;
  z_finals : Dd_zkp.Ballot_proof.final_move array;  (** per position *)
}

type t =
  | Openings of opening_entry list
  | Zk_final of zk_entry list
  | Tally_share of {
      shares : Elgamal_vss.share array;  (** per option coordinate *)
      ballots_counted : int;
    }
