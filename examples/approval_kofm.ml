(* k-out-of-m approval voting — the extension the paper's conclusion
   names as future work, implemented at the cryptographic layer: each
   voter approves up to k of m options; her ballot part commits to a
   0/1 vector summing to exactly k, proven in zero knowledge (per-row
   Sigma-OR plus a sum-equals-k Chaum-Pedersen proof); the homomorphic
   tally counts approvals per option without opening any ballot.

   Run with:  dune exec examples/approval_kofm.exe *)

module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve
module Unit_vector = Dd_commit.Unit_vector
module Ballot_proof = Dd_zkp.Ballot_proof
module Elgamal = Dd_commit.Elgamal
module Drbg = Dd_crypto.Drbg

let () =
  let gctx = Group_ctx.default () in
  let rng = Drbg.create ~seed:"approval-demo" in
  let m = 5 and k = 2 in
  let candidates = [| "Ada"; "Bea"; "Chi"; "Dev"; "Eli" |] in
  let ballots_cast =
    [ [ 0; 2 ]; [ 0; 1 ]; [ 2; 4 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
  in
  Printf.printf "approval election: %d candidates, approve exactly %d, %d voters\n\n"
    m k (List.length ballots_cast);

  (* every ballot: commit, prove, verify *)
  let committed =
    List.mapi
      (fun i choices ->
         let commitments, openings = Unit_vector.commit_k gctx rng ~options:m ~choices in
         let state, first = Ballot_proof.prove_commit gctx rng ~commitments ~openings in
         let challenge = Curve.random_scalar rng in
         let final = Ballot_proof.finalize state ~challenge in
         let ok = Ballot_proof.verify ~k gctx ~commitments first ~challenge final in
         Printf.printf "voter %d: commitment proven valid (%d-of-%d): %b\n" i k m ok;
         assert ok;
         (commitments, openings))
      ballots_cast
  in

  (* a voter trying to approve 3 cannot produce a valid sum proof *)
  let cheat_commitments, cheat_openings =
    Unit_vector.commit_k gctx rng ~options:m ~choices:[ 0; 1; 2 ]
  in
  let state, first = Ballot_proof.prove_commit gctx rng ~commitments:cheat_commitments
      ~openings:cheat_openings
  in
  let challenge = Curve.random_scalar rng in
  let final = Ballot_proof.finalize state ~challenge in
  Printf.printf "\nover-approval (3 choices) passes the k=%d verifier: %b\n" k
    (Ballot_proof.verify ~k gctx ~commitments:cheat_commitments first ~challenge final);

  (* homomorphic tally *)
  let tally_opening =
    Unit_vector.sum_openings ~options:m (List.map snd committed)
  in
  let tally_commitment = Unit_vector.sum ~options:m (List.map fst committed) in
  assert (Unit_vector.verify gctx tally_commitment tally_opening);
  let counts = Unit_vector.counts_of_opening tally_opening in
  Printf.printf "\napproval counts (opened only in aggregate):\n";
  Array.iteri (fun i c -> Printf.printf "  %-4s %d\n" candidates.(i) c) counts;
  let expected = Array.make m 0 in
  List.iter (List.iter (fun c -> expected.(c) <- expected.(c) + 1)) ballots_cast;
  Printf.printf "matches the cast ballots: %b\n" (counts = expected)
