(** Ballot-correctness zero-knowledge proof for one ballot part:
    every option commitment encrypts 0 or 1 (Sigma-OR), and the
    homomorphic sum encrypts exactly 1. The three sigma moves are
    separated in time: EA commits at setup, voter A/B coins form the
    challenge, trustees respond post-election from the VSS-shared
    prover state. *)

module Nat = Dd_bignum.Nat
module Elgamal = Dd_commit.Elgamal

type prover_state
type first_move
type final_move

(** Build the first move; the openings must be a 0/1 vector summing to
    the [k] the verifier checks (1 in the paper's single-choice
    elections; larger [k] implements the k-out-of-m extension from the
    paper's conclusion). Precondition: [openings.(i)] opens
    [commitments.(i)]. The simulated OR branch of each row is computed
    from that opening ({!simulated_move}), not from the commitment, so a
    mismatched pair yields a proof that does not verify. Every point of
    the first move comes out affine. Raises [Invalid_argument] on a
    non-0/1 message or an arity mismatch. *)
val prove_commit :
  Dd_crypto.Drbg.t ->
  commitments:Elgamal.t array -> openings:Elgamal.opening array ->
  prover_state * first_move

(** {!prove_commit} in three steps, for a prover that batches the
    curve work of many ballot parts: [draw_state] draws exactly what
    {!prove_commit} draws, in the same order; [first_move_jobs] lists
    the first move's [4m + 2] points as comb jobs (per row [a0.t1],
    [a0.t2], [a1.t1], [a1.t2], then the sum move's two); and
    [first_move_of_points] assembles the evaluated points. Raises
    [Invalid_argument] on a non-0/1 message. *)
val draw_state : Dd_crypto.Drbg.t -> openings:Elgamal.opening array -> prover_state

val first_move_jobs :
  prover_state -> Elgamal.opening array ->
  Dd_group.Curve.comb_job array

val first_move_of_points : Dd_group.Curve.point array -> first_move

(** Inverse of {!first_move_of_points}. *)
val first_move_points : first_move -> Dd_group.Curve.point array

(** [simulated_move o ~challenge ~response] is the first move of
    the OR branch that the opening [o] (message 0 or 1) does not
    satisfy, for the given simulated challenge and response: equal to
    what [Chaum_pedersen.simulate] derives from that branch's statement
    with the same [(challenge, response)], but computed from the
    witness with three fixed-base multiplications. Its operation
    sequence does not depend on the message. *)
val simulated_move :
  Elgamal.opening -> challenge:Nat.t -> response:Nat.t ->
  Chaum_pedersen.first_move

(** Compute the response for the (voter-coin-derived) challenge. *)
val finalize : prover_state -> challenge:Nat.t -> final_move

val verify :
  ?k:int -> commitments:Elgamal.t array -> first_move ->
  challenge:Nat.t -> final_move -> bool

(** One ballot part's complete transcript, for batch verification. *)
type instance = {
  commitments : Elgamal.t array;
  fm : first_move;
  challenge : Nat.t;
  fin : final_move;
}

(** Verify many ballot parts with one multi-scalar multiplication: the
    cheap scalar checks stay serial, every Chaum-Pedersen equation
    folds into one randomized linear combination (soundness 2^-128 per
    batch). {b Variable time} — published transcripts only. *)
val verify_batch :
  ?k:int -> Dd_crypto.Drbg.t -> instance array -> bool

(** Byte encodings: the state is what the EA secret-shares to the
    trustees; the moves are what lives on the BB. *)
val encode_state : prover_state -> string
val decode_state : string -> prover_state option
val encode_first_move : first_move -> string

(** Inverse of {!encode_first_move}, with full point validation; [None]
    on malformed input (used by the board's segment codec). *)
val decode_first_move : string -> first_move option

val encode_final_move : final_move -> string

(** Inverse of {!encode_final_move}; [None] on any length mismatch or
    a scalar not below the group order (the trustees' final moves come
    off the BB; also used by the BB nodes' durable input journal). *)
val decode_final_move : string -> final_move option
