(* Challenge extraction from the voters' coins. Each voter's random
   choice of ballot part (A = 0, B = 1) contributes one bit of entropy;
   D-DEMOS hashes the collected coins with the election context into
   the sigma-protocol challenge. With theta honest voters the coins
   have min-entropy >= theta, and by the min-entropy Schwartz-Zippel
   argument of [KZZ15] the soundness error is 2^-theta. *)

module Sc = Dd_bignum.Sc
module Curve = Dd_group.Curve

(* Master challenge for the election. *)
let master ~election_id ~coins =
  let bits = Bytes.create (List.length coins) in
  List.iteri (fun i c -> Bytes.set bits i (if c then '1' else '0')) coins;
  Curve.hash_to_scalar
    [ "d-demos-challenge"; election_id; Bytes.unsafe_to_string bits ]

(* Per-proof challenge, derived from the master so that each ballot
   part's proof gets an independent challenge while verifiers can
   recompute everything from the public coins. *)
let for_proof ~master_challenge ~serial ~part =
  Curve.hash_to_scalar
    [ "d-demos-proof-challenge";
      Sc.to_bytes master_challenge;
      string_of_int serial;
      (match part with `A -> "A" | `B -> "B") ]
