(* Message authentication between system nodes.

   Two interchangeable schemes, selected per election run:

   - [Schnorr]: real public-key signatures (full public verifiability;
     what the paper's PKI provides). Used by the integration tests,
     the examples, and the post-election phases.

   - [Mac]: pairwise-HMAC authenticator vectors, the classic BFT
     optimization (PBFT-style): a "signature" is one HMAC tag per
     potential verifier under the pairwise key. Orders of magnitude
     cheaper per message, which is what makes simulating 200k-ballot
     elections tractable; the trust structure is the same for the
     protocol logic (any node can check authenticity of any other
     node's endorsement addressed to it).

   Keys are dealt by the EA at setup, like everything else. *)

module Schnorr = Dd_sig.Schnorr
module Once = Dd_parallel.Once

type scheme =
  | Schnorr_scheme
  | Mac_scheme

type tag =
  | Schnorr_tag of Schnorr.signature
  | Mac_tag of string array   (* tag per verifier id *)

(* Per-node credential set. [peers] covers every node that may verify
   our tags; with MACs, key.(i).(j) is shared between nodes i and j. *)
type keys = {
  scheme : scheme;
  me : int;
  sk : Schnorr.secret_key;
  pks : Schnorr.public_key array;       (* indexed by node id *)
  pk_tables : Schnorr.pk_table Once.t array;  (* comb tables, all built on the
                                                 first verify against any signer *)
  pk_pre : Schnorr.pk_table Once.t array;  (* [pk_tables] again, kept for
                                              perfbench's warm-up *)
  mac_keys : string array;              (* pairwise keys, indexed by peer *)
  rng : Dd_crypto.Drbg.t;
}

(* Deal credentials for a clique of [n] nodes from the EA's RNG. The
   derivation is deterministic in the seed, so every node's view is
   consistent. *)
let deal_clique ~scheme ~seed ~n =
  let master = Dd_crypto.Drbg.create ~seed in
  let key_pairs =
    Array.init n (fun i ->
        Schnorr.keygen (Dd_crypto.Drbg.fork master ~label:(Printf.sprintf "sk%d" i)))
  in
  (* one shared inversion puts every key in affine form, so encoding a
     key into a Schnorr challenge (every sign and verify) is free *)
  let pks =
    Array.map2
      (fun (_, pk) xy -> match xy with Some xy -> Dd_group.Curve.of_affine xy | None -> pk)
      key_pairs
      (Dd_group.Curve.to_affine_batch (Array.map snd key_pairs))
  in
  let pair_key i j =
    let lo = min i j and hi = max i j in
    Dd_crypto.Sha256.digest_list [ "mac-key"; seed; string_of_int lo; string_of_int hi ]
  in
  (* Tables are shared across the clique (they depend only on the public
     keys) and built on first use — as Once cells rather than lazy so a
     verify race between domains is benign — so dealing stays cheap and
     MAC-scheme runs never pay for them. The first cell forced builds
     every signer's table in one batch, through the one cell they share. *)
  let clique = Once.make (fun () -> Schnorr.make_pk_tables pks) in
  let pk_tables = Array.init n (fun i -> Once.make (fun () -> (Once.force clique).(i))) in
  Array.init n (fun i ->
      { scheme; me = i;
        sk = fst key_pairs.(i);
        pks;
        pk_tables;
        pk_pre = pk_tables;
        mac_keys = Array.init n (fun j -> pair_key i j);
        rng = Dd_crypto.Drbg.fork master ~label:(Printf.sprintf "rng%d" i) })

(* [?rng] overrides the node's own nonce stream — parallel callers
   (Ea.setup_chunks) pass a per-task forked DRBG so signing order cannot
   depend on the schedule; plain callers keep the node stream. *)
let sign ?rng (k : keys) msg =
  match k.scheme with
  | Schnorr_scheme ->
    let rng = Option.value rng ~default:k.rng in
    Schnorr_tag (Schnorr.sign rng ~sk:k.sk ~pk:k.pks.(k.me) msg)
  | Mac_scheme ->
    Mac_tag (Array.map (fun key -> Dd_crypto.Hmac.sha256 ~key msg) k.mac_keys)

(* Signing in two halves for batched signers (Ea): the nonce is drawn
   in transcript order, its commitment R = k*G computed with everyone
   else's in one lockstep batch. MAC tags draw nothing. *)
let draw_nonce ~rng (k : keys) =
  match k.scheme with
  | Schnorr_scheme -> Some (Schnorr.nonce rng)
  | Mac_scheme -> None

let sign_prepared (k : keys) ~nonce msg =
  match k.scheme, nonce with
  | Schnorr_scheme, Some (nonce, commitment) ->
    Schnorr_tag
      (Schnorr.sign_with_nonce ~nonce ~commitment ~sk:k.sk ~pk:k.pks.(k.me) msg)
  | Schnorr_scheme, None ->
    (* lint: allow exception-hygiene — a programming error in the EA, never peer input *)
    invalid_arg "Auth.sign_prepared: Schnorr tag without a nonce"
  | Mac_scheme, _ -> sign k msg

(* [verify k ~signer msg tag]: does [tag] authenticate [msg] as coming
   from [signer], from the point of view of node [k.me]? *)
let verify (k : keys) ~signer msg = function
  | Schnorr_tag s ->
    k.scheme = Schnorr_scheme
    && signer >= 0 && signer < Array.length k.pks
    && Schnorr.verify_with_table ~pk:k.pks.(signer)
         ~pk_table:(Once.force k.pk_tables.(signer)) msg s
  | Mac_tag tags ->
    k.scheme = Mac_scheme
    && signer >= 0 && signer < Array.length k.mac_keys
    && k.me < Array.length tags
    && Dd_crypto.Ct.equal tags.(k.me) (Dd_crypto.Hmac.sha256 ~key:k.mac_keys.(signer) msg)

(* Verify many [(signer, msg, tag)] triples at once. Under
   [Schnorr_scheme] the whole list folds into one randomized batch
   (one MSM + one batch normalization — the UCERT hot path), with one
   key term per signer; HMACs are already cheap, so [Mac_scheme] just
   checks serially. Weights come from the node's own DRBG stream, so a
   Byzantine signer cannot predict them. *)
let verify_batch (k : keys) (items : (int * string * tag) list) =
  match k.scheme with
  | Mac_scheme -> List.for_all (fun (signer, msg, tag) -> verify k ~signer msg tag) items
  | Schnorr_scheme ->
    let ok = ref true in
    let sigs =
      List.filter_map
        (fun (signer, msg, tag) ->
           match tag with
           | Schnorr_tag s when signer >= 0 && signer < Array.length k.pks ->
             Some (k.pks.(signer), msg, s)
           | _ -> ok := false; None)
        items
    in
    !ok && Schnorr.verify_batch k.rng (Array.of_list sigs)
