(* What trustees write to the BB after the election (Section III-H):
   - openings of every commitment in *unused* ballot parts (the audit
     material voters check against their paper ballots);
   - final moves of the ballot-correctness ZK proofs for *used* parts;
   - one share of the opening of the homomorphic tally total Esum.

   Values are typed here (the simulator passes values). *)

module Elgamal_vss = Dd_vss.Elgamal_vss

type opening_entry = {
  o_serial : int;
  o_part : Types.part_id;
  (* positions x coordinates: this trustee's share of each opening *)
  o_shares : Elgamal_vss.share array array;
}

type zk_entry = {
  z_serial : int;
  z_part : Types.part_id;
  (* one final move per ballot-part position *)
  z_finals : Dd_zkp.Ballot_proof.final_move array;
}

type t =
  | Openings of opening_entry list
  | Zk_final of zk_entry list
  | Tally_share of {
      (* per option coordinate: share of the opening of Esum *)
      shares : Elgamal_vss.share array;
      ballots_counted : int;
    }
