(* Schnorr signatures over the shared curve group with SHA-256 as the
   Fiat-Shamir hash. Fills the role of the paper's PKI signatures for
   ENDORSEMENT messages, UCERT certificates, trustee writes to the BB,
   and the EA's signatures on initialization data. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve
module Batch = Dd_group.Batch

type secret_key = Nat.t
type public_key = Curve.point

(* The signature carries the nonce commitment R rather than the
   challenge hash e: verifiers recompute e = H(R, pk, msg) and check
   the group equation s*G + e*PK = R directly, which is what makes
   signatures *batchable* — n equations fold into one random linear
   combination and a single MSM (with the (s, e) encoding, each R
   would first have to be recovered by its own full mul2). Cost of the
   serial path is unchanged: one double-scalar multiplication plus a
   point equality instead of plus a hash comparison. *)
type signature = {
  s : Nat.t;
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
  let fn = Curve.scalar_field in
  let e = challenge ~commitment ~pk msg in
  { s = Modular.sub fn nonce (Modular.mul fn e sk); r = commitment }

let sign rng ~sk ~pk msg =
  let k = nonce rng in
  let r =
    (* k is nonzero mod n, so R is never the identity *)
    match Curve.to_affine (Group_ctx.mul_g k) with
    | Some xy -> Curve.of_affine xy
    | None -> Curve.infinity
  in
  sign_with_nonce ~nonce:k ~commitment:r ~sk ~pk msg

(* Verification works on public data only, so it may take the
   variable-time multi-scalar paths (see the timing contract in
   curve.mli). *)
let verify ~pk msg { s; r } =
  let e = challenge ~commitment:r ~pk msg in
  Curve.equal (Group_ctx.mul2_g s e pk) r

(* A comb table for PK turns e*PK into doubling-free comb adds; with
   many signatures under one key (every endorsement a node checks
   carries the same VC signer set) the table amortizes fast. Width 4,
   not the generators' 8: every cast set-up builds one per signer, and
   a width-4 table costs a sixteenth of the entries. *)
type pk_table = Curve.base_table

let make_pk_table pk = Curve.make_base_table ~width:4 pk

let verify_with_table ~pk ~pk_table msg { s; r } =
  let e = challenge ~commitment:r ~pk msg in
  Curve.equal (Curve.add (Group_ctx.mul_g s) (Curve.mul_base_table pk_table e)) r

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
    let fn = Curve.scalar_field in
    let len = Curve.byte_len in
    let pts = Array.make (2 * n) Curve.infinity in
    Array.iteri
      (fun i (pk, _, sg) ->
         pts.(2 * i) <- sg.r;
         pts.(2 * i + 1) <- pk)
      items;
    let aff = Curve.to_affine_batch pts in
    (* byte-identical to Curve.encode, from the batched affine forms *)
    let enc = function
      | None -> "\x00"
      | Some (x, y) -> "\x04" ^ Nat.to_bytes_be ~len x ^ Nat.to_bytes_be ~len y
    in
    let acc = Group_ctx.msm_acc () in
    (* encoded key -> (affine key, folded coefficient) *)
    let keys = Hashtbl.create 8 in
    Array.iteri
      (fun i (pk, msg, sg) ->
         let epk = enc aff.(2 * i + 1) in
         let e = Curve.hash_to_scalar [ domain; enc aff.(2 * i); epk; msg ] in
         (* Pinning the first weight to 1 is sound: a bad item i > 0 is
            caught except with probability 2^-128 over its own weight,
            and a bad item 0 alone leaves the sum off the identity
            deterministically. It saves item 0's R table in the MSM. *)
         let w = if i = 0 then Nat.one else Batch.weight rng in
         Group_ctx.acc_add acc (Modular.mul fn w (Modular.reduce fn sg.s)) Group_ctx.g;
         let we = Modular.mul fn w e in
         (match Hashtbl.find_opt keys epk with
          | Some (p, c) -> Hashtbl.replace keys epk (p, Modular.add fn c we)
          | None ->
            (* hand the MSM the affine form of PK we already paid for:
               its input normalization then has less left to invert *)
            let p = match aff.(2 * i + 1) with Some xy -> Curve.of_affine xy | None -> pk in
            Hashtbl.replace keys epk (p, we));
         Group_ctx.acc_sub acc w sg.r)
      items;
    Hashtbl.iter (fun _ (p, c) -> Group_ctx.acc_add acc c p) keys;
    Group_ctx.acc_check acc
  end

(* Localize the invalid signatures of a failing batch (sorted indices;
   [] iff the whole batch verifies). *)
let verify_batch_find rng items =
  Batch.find_failures ~n:(Array.length items)
    ~check:(fun ~lo ~len ->
        if len = 1 then (let pk, msg, sg = items.(lo) in verify ~pk msg sg)
        else verify_batch rng (Array.sub items lo len))

let commitment { r; _ } = r

let encode { s; r } =
  let len = Curve.byte_len in
  Nat.to_bytes_be ~len s ^ Curve.encode_compressed r

(* Only the canonical s < n is accepted: the group law would reduce a
   larger one, so its twin s - n would verify as well. *)
let decode bytes =
  let len = Curve.byte_len in
  if String.length bytes <> 2 * len + 1 then None
  else
    match
      Curve.decode_scalar (String.sub bytes 0 len),
      Curve.decode_compressed (String.sub bytes len (len + 1))
    with
    | Some s, Some r when not (Curve.is_infinity r) -> Some { s; r }
    | _ -> None

let encode_pk pk = Curve.encode pk
let decode_pk s = Curve.decode s
