(* Schnorr signatures over the shared curve group with SHA-256 as the
   Fiat-Shamir hash. Fills the role of the paper's PKI signatures for
   ENDORSEMENT messages, UCERT certificates, trustee writes to the BB,
   and the EA's signatures on initialization data. *)

module Sc = Dd_bignum.Sc
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve
module Batch = Dd_group.Batch

type secret_key = Sc.t
type public_key = Curve.point

(* The signature carries the nonce commitment R rather than the
   challenge hash e: verifiers recompute e = H(R, pk, msg) and check
   the group equation s*G + e*PK = R directly, which is what makes
   signatures *batchable* — n equations fold into one random linear
   combination and a single MSM (with the (s, e) encoding, each R
   would first have to be recovered by its own double-scalar
   multiplication). The serial check is the same equation at weight
   one: a comb on G, a wNAF chain on PK and an add of -R. *)
type signature = {
  s : Sc.t;
  r : Curve.point;
}

let keygen rng =
  let sk = Curve.random_scalar rng in
  (sk, Group_ctx.mul_g sk)

let domain = "schnorr-sig"

let challenge ~commitment ~pk msg =
  Curve.hash_to_scalar [ domain; Curve.encode commitment; Curve.encode pk; msg ]

let nonce rng = Curve.random_scalar rng

(* [commitment] is R = nonce * G in affine form: R travels on the wire,
   and a decoded signature must compare structurally equal to the
   original. *)
let sign_with_nonce ~nonce ~commitment ~sk ~pk msg =
  let e = challenge ~commitment ~pk msg in
  { s = Sc.sub nonce (Sc.mul e sk); r = commitment }

let sign rng ~sk ~pk msg =
  let k = nonce rng in
  let r =
    (* k is nonzero mod n, so R is never the identity *)
    match Curve.to_affine (Group_ctx.mul_g k) with
    | Some xy -> Curve.of_affine xy
    | None -> Curve.infinity
  in
  sign_with_nonce ~nonce:k ~commitment:r ~sk ~pk msg

(* The verification equation s*G + e*PK - R = O, every scalar times the
   weight w. The key's term goes to [key], so a batch can fold every
   signature under one key into one coefficient; the other terms go to
   [acc]. Public data only, so the variable-time paths are fine (see
   the timing contract in curve.mli). *)
let terms acc w ~key ~e { s; r } =
  Group_ctx.acc_add acc (Sc.mul w s) Group_ctx.g;
  key (Sc.mul w e);
  Group_ctx.acc_sub acc w r

let verify ~pk msg sg =
  let e = challenge ~commitment:sg.r ~pk msg in
  Group_ctx.holds (fun acc w -> terms acc w ~key:(fun c -> Group_ctx.acc_add acc c pk) ~e sg)

(* A comb table for PK turns e*PK into doubling-free comb adds; with
   many signatures under one key (every endorsement a node checks
   carries the same VC signer set) the table amortizes fast. It covers
   the GLV halves of e, not all 256 bits: every cast set-up builds one
   per signer, and the halves need 32 rows where e needs 64. e is a
   public hash, so the variable-time split and walk are fine. *)
type pk_table = Curve.endo_table

let make_pk_tables pks = Curve.make_endo_tables pks

let make_pk_table pk = (make_pk_tables [| pk |]).(0)

let verify_with_table ~pk ~pk_table msg { s; r } =
  let e = challenge ~commitment:r ~pk msg in
  Curve.equal (Curve.mul2_endo (Group_ctx.g_table ()) s pk_table (Curve.endo_split e)) r

(* Batch verification: fold n equations s_i*G + e_i*PK_i - R_i = O
   with independent random weights into one MSM (soundness 2^-128 per
   batch; see Batch). The challenge hashes need every R_i and PK_i in
   affine form, so one Montgomery-trick normalization replaces the n
   point-encoding inversions the serial path pays — at UCERT batch
   sizes that amortization is worth as much as the MSM itself. The
   weighted challenges of every signature under one key (equal
   canonical encodings) fold into one coefficient, so a batch of n
   signatures from k signers hands the MSM n R-terms and k key terms;
   the s_i fold into the G leg the same way (Group_ctx). *)
let verify_batch rng (items : (Curve.point * string * signature) array) =
  let n = Array.length items in
  if n = 0 then true
  else if n = 1 then (let pk, msg, sg = items.(0) in verify ~pk msg sg)
  else begin
    let pts = Array.make (2 * n) Curve.infinity in
    Array.iteri
      (fun i (pk, _, sg) ->
         pts.(2 * i) <- sg.r;
         pts.(2 * i + 1) <- pk)
      items;
    let aff = Curve.to_affine_batch pts in
    let acc = Group_ctx.msm_acc () in
    (* encoded key -> (affine key, folded coefficient) *)
    let keys = Hashtbl.create 8 in
    Array.iteri
      (fun i (pk, msg, sg) ->
         let epk = Curve.encode_affine aff.(2 * i + 1) in
         let e = Curve.hash_to_scalar [ domain; Curve.encode_affine aff.(2 * i); epk; msg ] in
         let key we =
           match Hashtbl.find_opt keys epk with
           | Some (p, c) -> Hashtbl.replace keys epk (p, Sc.add c we)
           | None ->
             (* hand the MSM the affine form of PK we already paid for:
                its input normalization then has less left to invert *)
             let p = match aff.(2 * i + 1) with Some xy -> Curve.of_affine xy | None -> pk in
             Hashtbl.replace keys epk (p, we)
         in
         (* Pinning the first weight to 1 is sound: a bad item i > 0 is
            caught except with probability 2^-128 over its own weight,
            and a bad item 0 alone leaves the sum off the identity
            deterministically. It saves item 0's R table in the MSM. *)
         terms acc (if i = 0 then Sc.one else Batch.weight rng) ~key ~e sg)
      items;
    Hashtbl.iter (fun _ (p, c) -> Group_ctx.acc_add acc c p) keys;
    Group_ctx.acc_check acc
  end

let commitment { r; _ } = r

let encode { s; r } = Sc.to_bytes s ^ Curve.encode_compressed r

(* Only the canonical s < n is accepted: the group law would reduce a
   larger one, so its twin s - n would verify as well. *)
let decode bytes =
  let len = Curve.byte_len in
  if String.length bytes <> 2 * len + 1 then None
  else
    match
      Sc.of_bytes (String.sub bytes 0 len),
      Curve.decode_compressed (String.sub bytes len (len + 1))
    with
    | Some s, Some r when not (Curve.is_infinity r) -> Some { s; r }
    | _ -> None

