(* Deterministic generation of the plain (non-asymmetric-crypto) ballot
   material from a master seed: vote codes, receipts, salts, the
   per-part shuffles, and the GF(256) receipt shares.

   Every party derives exactly the same values from the same seed, which
   is what lets the large-scale experiments use a *virtual* ballot store
   (Fig. 5a runs elections over 250 million ballots without
   materializing them): a VC node derives a ballot's validation data on
   first touch instead of reading a 100-GB PostgreSQL table, and the
   simulator separately charges the disk-cost model for the lookup. *)

module Drbg = Dd_crypto.Drbg
module Shamir_bytes = Dd_vss.Shamir_bytes

type part_material = {
  perm : int array;            (* printed option j sits at position perm.(j) *)
  codes : string array;        (* by position *)
  receipts : string array;     (* by position *)
  salts : string array;        (* by position *)
  hashes : string array;       (* SHA256(code || salt), by position *)
}

let code_hash ~code ~salt = Dd_crypto.Sha256.digest_list [ code; salt ]

let part_rng ~seed ~serial ~part =
  Drbg.create
    ~seed:(String.concat "|" [ "ballot"; seed; string_of_int serial; Types.part_label part ])

(* Fisher-Yates from the derived generator. *)
let permutation rng m =
  let perm = Array.init m (fun i -> i) in
  for i = m - 1 downto 1 do
    let j = Drbg.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  perm

(* The part's DRBG draws, in order: the shuffle, then per printed
   option its code, receipt and salt; each placed at its permuted
   position. *)
let draw_part ~seed ~serial ~part ~m =
  let rng = part_rng ~seed ~serial ~part in
  let perm = permutation rng m in
  let codes = Array.make m "" and receipts = Array.make m "" and salts = Array.make m "" in
  for option = 0 to m - 1 do
    let pos = perm.(option) in
    codes.(pos) <- Drbg.bytes rng Types.vote_code_bytes;
    receipts.(pos) <- Drbg.bytes rng Types.receipt_bytes;
    salts.(pos) <- Drbg.bytes rng Types.salt_bytes
  done;
  (perm, codes, receipts, salts)

let gen_part ~seed ~serial ~part ~m : part_material =
  let perm, codes, receipts, salts = draw_part ~seed ~serial ~part ~m in
  let hashes = Array.mapi (fun i code -> code_hash ~code ~salt:salts.(i)) codes in
  { perm; codes; receipts; salts; hashes }

(* The ballot as printed for the voter: lines in option order. It reads
   no code hash, so it computes none. *)
let voter_ballot ~seed ~serial ~m : Types.ballot =
  let part_of p =
    let perm, codes, receipts, _ = draw_part ~seed ~serial ~part:p ~m in
    { Types.lines =
        Array.init m (fun option ->
            let pos = perm.(option) in
            { Types.vote_code = codes.(pos); Types.receipt = receipts.(pos) }) }
  in
  { Types.serial; Types.part_a = part_of Types.A; Types.part_b = part_of Types.B }

(* All nodes' receipt shares for one line, derived deterministically so
   each VC node can derive its own share locally. *)
let receipt_shares ~seed ~serial ~part ~pos ~receipt ~threshold ~shares =
  let rng =
    Drbg.create
      ~seed:(String.concat "|"
               [ "rshare"; seed; string_of_int serial; Types.part_label part;
                 string_of_int pos ])
  in
  Shamir_bytes.split rng ~secret:receipt ~threshold ~shares

(* Master key material for the vote-code encryption on the BB. *)
let msk ~seed = Dd_crypto.Drbg.bytes (Drbg.create ~seed:("msk|" ^ seed)) Types.msk_bytes

let msk_salt ~seed = Dd_crypto.Drbg.bytes (Drbg.create ~seed:("msksalt|" ^ seed)) 8

let msk_commitment ~seed =
  Dd_crypto.Sha256.digest_list [ msk ~seed; msk_salt ~seed ]

let msk_shares ~seed ~threshold ~shares =
  let rng = Drbg.create ~seed:("mskshare|" ^ seed) in
  Shamir_bytes.split rng ~secret:(msk ~seed) ~threshold ~shares

(* One VC node's validation view of a ballot part (permuted order). *)
let vc_lines ~seed ~cfg ~serial ~part ~node : Types.vc_line array =
  let m = cfg.Types.m_options in
  let mat = gen_part ~seed ~serial ~part ~m in
  Array.init m (fun pos ->
      let all =
        receipt_shares ~seed ~serial ~part ~pos ~receipt:mat.receipts.(pos)
          ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
      in
      { Types.code_hash = mat.hashes.(pos);
        Types.salt = mat.salts.(pos);
        Types.receipt_share = all.(node);
        Types.share_tag = None })
