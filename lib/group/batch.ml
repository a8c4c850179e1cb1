(* Shared plumbing for randomized batch verification.

   A batch verifier folds n verification equations E_i = O into the
   single check sum_i w_i * E_i = O with independent random 128-bit
   weights w_i: if any E_i <> O, the weighted sum vanishes with
   probability at most 2^-128 over the choice of weights (the defect
   points span a subgroup of prime order, so for fixed nonzero defects
   exactly one weight value per 2^128 cancels the sum). One
   multi-scalar multiplication then replaces n independent
   verifications. On failure, [find_failures] localizes the offending
   items by bisection over sub-batches. *)

module Sc = Dd_bignum.Sc

(* 128 bits keeps the weight half the scalar width (cheaper wNAF
   chains) while already pushing the cheat probability below the
   2^-128 soundness target documented in DESIGN.md. *)
let weight_bits = 128

(* A fresh nonzero weight. Zero (probability 2^-128) would void the
   soundness argument for its item, so it maps to 1. *)
let weight rng =
  let w = Sc.of_bytes_mod (Dd_crypto.Drbg.bytes rng (weight_bits / 8)) in
  if Sc.is_zero w then Sc.one else w

(* Derive a weight DRBG from the data being verified (Fiat-Shamir
   style): a cheating prover must commit to the batch items before it
   can learn the weights, so derived weights are as sound as fresh
   ones for verifying *published* transcripts. Verifiers with a live
   entropy/DRBG stream of their own (nodes) should prefer it. *)
let derive_rng ~label parts =
  Dd_crypto.Drbg.create
    ~seed:("batch-weights:" ^ label ^ ":" ^ Dd_crypto.Sha256.digest_list parts)

(* Indices (sorted) of the failing items among [n], given a checker for
   contiguous sub-batches: recursive halving re-checks each half, so a
   single bad item costs O(log n) sub-batch checks. [check ~lo ~len]
   must hold iff items lo..lo+len-1 all verify. *)
let find_failures ~n ~check =
  let rec go lo len acc =
    if len = 0 || check ~lo ~len then acc
    else if len = 1 then lo :: acc
    else begin
      let half = len / 2 in
      go lo half (go (lo + half) (len - half) acc)
    end
  in
  go 0 n []
