(* The Election Authority: the setup-only component. It generates every
   party's initialization data — voter ballots, VC validation data and
   receipt/msk shares, BB commitments with encrypted vote codes and ZK
   first moves, trustee opening shares and ZK prover-state shares — and
   is then destroyed (in this codebase: the [setup] value holds the
   secrets; production code would erase it; our harness simply drops
   it, and the malicious-EA tests deliberately keep it around to
   attack). *)

module Drbg = Dd_crypto.Drbg
module Pool = Dd_parallel.Pool
module Group_ctx = Dd_group.Group_ctx
module Elgamal = Dd_commit.Elgamal
module Unit_vector = Dd_commit.Unit_vector
module Ballot_proof = Dd_zkp.Ballot_proof
module Shamir_bytes = Dd_vss.Shamir_bytes
module Elgamal_vss = Dd_vss.Elgamal_vss

(* One ballot part as the BB publishes it: entries in permuted order. *)
type bb_part_entry = {
  enc_code : string * string;                (* AES-128-CBC$ (iv, ct) of the vote code *)
  commitment : Elgamal.t array;              (* the m option-encoding coordinates *)
  zk_first : Ballot_proof.first_move;
}

type bb_ballot = {
  bb_serial : int;
  bb_parts : bb_part_entry array array;      (* part (A=0, B=1) -> position *)
}

type bb_init = {
  hmsk : string;
  salt_msk : string;
}

type vc_node_init = {
  vc_id : int;
  vc_msk_share : Shamir_bytes.share;
  (* serial -> part -> position *)
  vc_lines : Types.vc_line array array array;
}

type trustee_part_data = {
  (* position -> coordinate -> this trustee's opening share *)
  t_shares : Elgamal_vss.share array array;
  (* this trustee's share of the serialized ZK prover state *)
  t_zk_state_share : Shamir_bytes.share;
  t_zk_state_tag : Auth.tag;                 (* EA authenticator on the state share *)
}

type trustee_init = {
  t_id : int;
  (* serial -> part -> data *)
  t_ballots : trustee_part_data array array;
}

type setup = {
  cfg : Types.config;
  ballots : Types.ballot array;
  (* authenticator cliques; index nv (resp. nt) is the EA itself *)
  vc_keys : Auth.keys array;
  trustee_keys : Auth.keys array;
  vc_init : vc_node_init array;
  bb_init : bb_init;
  bb_ballots : bb_ballot array;
  trustee_init : trustee_init array;
}

let zk_state_body ~election_id ~serial ~part ~trustee (share : Shamir_bytes.share) =
  String.concat "|"
    [ "zkstate"; election_id; string_of_int serial; Types.part_label part;
      string_of_int trustee; string_of_int share.Shamir_bytes.x; share.Shamir_bytes.data ]

let inverse_perm perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun option pos -> inv.(pos) <- option) perm;
  inv

(* --- chunked streaming setup ----------------------------------------- *)

(* Everything the EA produces that is O(1) in the number of voters:
   the per-chunk emissions below carry the O(n) part. *)
type static = {
  st_cfg : Types.config;
  st_gctx : Group_ctx.t;
  st_vc_keys : Auth.keys array;
  st_trustee_keys : Auth.keys array;
  st_hmsk : string;
  st_salt_msk : string;
  st_msk_shares : Shamir_bytes.share array;
  st_n_chunks : int;
  st_chunk_size : int;
}

(* One contiguous serial range [ck_first, ck_first + |ck_ballots|) of
   every party's init data: the unit of streaming emission, durable
   checkpointing and resume. *)
type chunk = {
  ck_index : int;
  ck_first : int;
  ck_ballots : Types.ballot array;
  ck_bb : bb_ballot array;
  (* node -> serial-in-chunk -> part -> position *)
  ck_vc : Types.vc_line array array array array;
  (* trustee -> serial-in-chunk -> part *)
  ck_trustee : trustee_part_data array array array;
}

let default_setup_chunk = 1024

(* --- one ballot part in three passes ---------------------------------- *)

(* Everything a (serial, part) draws from its DRBG, drawn in the order
   of the single-pass EA this replaced: the VC share-tag nonces (node by
   node, position by position), then per position the commitment
   openings, the ballot proof's prover state, the trustee shares of
   each opening and the code's IV, then the ZK-state shares and the
   trustee tag nonces. Nothing here is a curve point: those come from
   [part_jobs]. *)
type drawn_part = {
  d_serial : int;
  d_part : Types.part_id;
  d_mat : Ballot_gen.part_material;
  d_receipt_shares : Shamir_bytes.share array array;     (* pos -> node *)
  d_vc_nonces : Dd_bignum.Nat.t option array array;      (* node -> pos *)
  d_openings : Elgamal.opening array array;              (* pos -> coordinate *)
  d_states : Ballot_proof.prover_state array;            (* pos *)
  d_shares : Elgamal_vss.share array array array;        (* pos -> coordinate -> trustee *)
  d_ivs : string array;                                  (* pos *)
  d_state_shares : Shamir_bytes.share array;             (* trustee *)
  d_trustee_nonces : Dd_bignum.Nat.t option array;       (* trustee *)
}

let draw_part cfg ~seed ~ea_vc ~ea_trustee rng ~serial ~part =
  let m = cfg.Types.m_options in
  let nv = cfg.Types.nv and fv = cfg.Types.fv in
  let nt = cfg.Types.nt and ht = cfg.Types.ht in
  let mat = Ballot_gen.gen_part ~seed ~serial ~part ~m in
  let inv = inverse_perm mat.Ballot_gen.perm in
  let receipt_shares =
    Array.init m (fun pos ->
        Ballot_gen.receipt_shares ~seed ~serial ~part ~pos
          ~receipt:mat.Ballot_gen.receipts.(pos) ~threshold:(nv - fv) ~shares:nv)
  in
  let vc_nonces =
    Array.init nv (fun _ -> Array.init m (fun _ -> Auth.draw_nonce ~rng ea_vc))
  in
  let per_pos =
    Array.init m (fun pos ->
        let openings = Unit_vector.openings rng ~options:m ~choice:inv.(pos) in
        let state = Ballot_proof.draw_state rng ~openings in
        let shares =
          Array.map (fun o -> Elgamal_vss.deal rng ~opening:o ~threshold:ht ~shares:nt) openings
        in
        let iv = Drbg.bytes rng 16 in
        (openings, state, shares, iv))
  in
  let states = Array.map (fun (_, st, _, _) -> st) per_pos in
  (* share the part's ZK states (all positions, concatenated) *)
  let state_blob =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun st ->
               let s = Ballot_proof.encode_state st in
               Printf.sprintf "%08d" (String.length s) ^ s)
            states))
  in
  let state_shares = Shamir_bytes.split rng ~secret:state_blob ~threshold:ht ~shares:nt in
  { d_serial = serial;
    d_part = part;
    d_mat = mat;
    d_receipt_shares = receipt_shares;
    d_vc_nonces = vc_nonces;
    d_openings = Array.map (fun (o, _, _, _) -> o) per_pos;
    d_states = states;
    d_shares = Array.map (fun (_, _, v, _) -> v) per_pos;
    d_ivs = Array.map (fun (_, _, _, iv) -> iv) per_pos;
    d_state_shares = state_shares;
    d_trustee_nonces = Array.init nt (fun _ -> Auth.draw_nonce ~rng ea_trustee) }

(* The part's curve points as comb jobs, in the order [finish_part]
   takes them back: the VC tag nonce commitments; per position the m
   commitments (c1, c2) and the ballot proof's first move; the trustee
   tag nonce commitments. *)
let part_jobs d =
  let nonce = function
    | Some k -> [ [ (Group_ctx.g_table (), k) ] ]
    | None -> []
  in
  let commit o = let c1, c2 = Elgamal.commit_bit_jobs o in [ c1; c2 ] in
  let per_pos pos =
    List.concat_map commit (Array.to_list d.d_openings.(pos))
    @ Array.to_list (Ballot_proof.first_move_jobs d.d_states.(pos) d.d_openings.(pos))
  in
  List.concat_map nonce (List.concat_map Array.to_list (Array.to_list d.d_vc_nonces))
  @ List.concat (List.init (Array.length d.d_openings) per_pos)
  @ List.concat_map nonce (Array.to_list d.d_trustee_nonces)

(* Comb jobs per ballot part, as [part_jobs] lists them: one per EA
   signature, and per position 2m for the commitments and 4m + 2 for
   the first move. It sizes the lockstep groups. *)
let jobs_per_part cfg =
  let m = cfg.Types.m_options in
  (cfg.Types.nv * m) + cfg.Types.nt + (m * ((2 * m) + (4 * m) + 2))

(* Assemble one part's records from its evaluated points, taken in
   [part_jobs] order through [next]: the Schnorr challenges are hashed
   here. *)
let finish_part cfg ~msk ~ea_vc ~ea_trustee d ~next =
  let m = cfg.Types.m_options in
  let election_id = cfg.Types.election_id in
  let serial = d.d_serial and part = d.d_part in
  let mat = d.d_mat in
  let with_point = Option.map (fun k -> (k, next ())) in
  let vc_nonces = Array.map (Array.map with_point) d.d_vc_nonces in
  let next_commitment _ =
    let c1 = next () in
    Elgamal.make ~c1 ~c2:(next ())
  in
  let bb_entries =
    Array.init m (fun pos ->
        let commitment = Array.map next_commitment d.d_openings.(pos) in
        let zk_first =
          Ballot_proof.first_move_of_points
            (Array.init ((4 * m) + 2) (fun _ -> next ()))
        in
        let iv = d.d_ivs.(pos) in
        let ct = Dd_crypto.Aes128.cbc_encrypt ~key:msk ~iv mat.Ballot_gen.codes.(pos) in
        { enc_code = (iv, ct); commitment; zk_first })
  in
  let trustee_nonces = Array.map with_point d.d_trustee_nonces in
  (* VC validation lines with EA-signed receipt shares *)
  let vc_lines =
    Array.mapi
      (fun node nonces ->
         Array.init m (fun pos ->
             let share = d.d_receipt_shares.(pos).(node) in
             let body = Messages.share_body ~election_id ~serial ~part ~pos ~node ~share in
             { Types.code_hash = mat.Ballot_gen.hashes.(pos);
               Types.salt = mat.Ballot_gen.salts.(pos);
               Types.receipt_share = share;
               Types.share_tag = Some (Auth.sign_prepared ea_vc ~nonce:nonces.(pos) body) }))
      vc_nonces
  in
  let trustee_data =
    Array.mapi
      (fun trustee nonce ->
         let share = d.d_state_shares.(trustee) in
         { t_shares = Array.map (Array.map (fun shares -> shares.(trustee))) d.d_shares;
           t_zk_state_share = share;
           t_zk_state_tag =
             Auth.sign_prepared ea_trustee ~nonce
               (zk_state_body ~election_id ~serial ~part ~trustee share) })
      trustee_nonces
  in
  (vc_lines, bb_entries, trustee_data)

(* Full-crypto setup, streamed chunk by chunk. Cost grows with
   n_voters * m^2; intended for the tests, the examples, and the
   post-election-phase benchmarks. The large-scale vote-collection
   benchmarks use Ballot_store.virtual_prf instead, which derives only
   the plain material on demand.

   Transcript discipline (pinned by test_parallel and the chunk-size
   invariance test in test_core): the parent [rng] is consumed ONLY by
   [Drbg.fork] calls, one per (serial, part), in ascending serial
   order. Chunking therefore cannot perturb any draw — the fork
   sequence is identical whether the loop runs monolithically or in
   chunks of any size, and per-ballot work happens on the forked child
   DRBGs inside the [?pool]-parallel region, every write landing in a
   slot indexed by (serial, part).

   Within a chunk the ballot parts go in groups of about
   [Curve.batch_group] comb jobs, sharded over the pool; each group
   draws its parts' scalars ([draw_part]), computes every curve point
   of the group in one affine lockstep batch ([part_jobs],
   [Curve.mul_base_batch]) and assembles the records ([finish_part]).
   Every emitted point is affine.

   [from_chunk] supports crash-resume: chunks below it are not
   regenerated, but their (serial, part) forks are still drawn from
   the parent in order and discarded, so the chunks that are
   regenerated see bit-identical DRBGs. *)
let setup_chunks ?pool
    ?(chunk_size = default_setup_chunk) ?(from_chunk = 0)
    (cfg : Types.config) ~seed ~emit =
  (match Types.validate_config cfg with
   | Ok () -> ()
   (* lint: allow exception-hygiene — the EA is the trusted dealer; config comes from the operator *)
   | Error e -> invalid_arg ("Ea.setup: " ^ e));
  (* lint: allow exception-hygiene — the EA is the trusted dealer; config comes from the operator *)
  if chunk_size <= 0 then invalid_arg "Ea.setup_chunks: chunk_size";
  let n = cfg.Types.n_voters and m = cfg.Types.m_options in
  let nv = cfg.Types.nv and fv = cfg.Types.fv in
  let nt = cfg.Types.nt in
  let rng = Drbg.create ~seed:("ea|" ^ seed) in
  let scheme = Auth.Schnorr_scheme in
  let vc_keys = Auth.deal_clique ~scheme ~seed:("vc-keys|" ^ seed) ~n:(nv + 1) in
  let trustee_keys =
    Auth.deal_clique ~scheme ~seed:("trustee-keys|" ^ seed) ~n:(nt + 1)
  in
  let ea_vc = vc_keys.(nv) and ea_trustee = trustee_keys.(nt) in
  let msk = Ballot_gen.msk ~seed in
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let n_chunks = (n + chunk_size - 1) / chunk_size in
  let parts_per_group = max 1 (Dd_group.Curve.batch_group / jobs_per_part cfg) in
  for ck_index = 0 to n_chunks - 1 do
    let ck_first = ck_index * chunk_size in
    let count = min chunk_size (n - ck_first) in
    (* one DRBG per (serial, part), forked in fixed serial order *)
    let part_rngs =
      Array.init count (fun i ->
          Array.init 2 (fun pi ->
              Drbg.fork rng
                ~label:(Printf.sprintf "ballot|%d|%d" (ck_first + i) pi)))
    in
    if ck_index >= from_chunk then begin
      let ck_ballots =
        Pool.parallel_map pool
          (fun i -> Ballot_gen.voter_ballot ~seed ~serial:(ck_first + i) ~m)
          (Array.init count (fun i -> i))
      in
      let ck_vc =
        Array.init nv (fun _ -> Array.init count (fun _ -> Array.make 2 [||]))
      in
      let bb_parts = Array.init count (fun _ -> Array.make 2 [||]) in
      let ck_trustee =
        Array.init nt (fun _ -> Array.init count (fun _ ->
            Array.make 2
              { t_shares = [||];
                t_zk_state_share = { Shamir_bytes.x = 0; Shamir_bytes.data = "" };
                t_zk_state_tag = Auth.Mac_tag [||] }))
      in
      (* part p of the chunk is serial ck_first + p / 2, part p mod 2 *)
      let n_parts = 2 * count in
      let n_groups = (n_parts + parts_per_group - 1) / parts_per_group in
      Pool.parallel_for pool ~chunk:1 n_groups (fun g ->
        let first = g * parts_per_group in
        let drawn =
          Array.init (min parts_per_group (n_parts - first)) (fun a ->
              let p = first + a in
              let part = if p mod 2 = 0 then Types.A else Types.B in
              draw_part cfg ~seed ~ea_vc ~ea_trustee part_rngs.(p / 2).(p mod 2)
                ~serial:(ck_first + (p / 2)) ~part)
        in
        let points =
          Dd_group.Curve.mul_base_batch
            (Array.of_list (List.concat_map part_jobs (Array.to_list drawn)))
        in
        let cursor = ref 0 in
        let next () = let pt = points.(!cursor) in incr cursor; pt in
        Array.iteri
          (fun a d ->
             let i = (first + a) / 2 and pi = (first + a) mod 2 in
             let vc_lines, entries, trustee_data =
               finish_part cfg ~msk ~ea_vc ~ea_trustee d ~next
             in
             Array.iteri (fun node lines -> ck_vc.(node).(i).(pi) <- lines) vc_lines;
             Array.iteri (fun t data -> ck_trustee.(t).(i).(pi) <- data) trustee_data;
             bb_parts.(i).(pi) <- entries)
          drawn);
      let ck_bb =
        Array.mapi (fun i parts -> { bb_serial = ck_first + i; bb_parts = parts }) bb_parts
      in
      emit { ck_index; ck_first; ck_ballots; ck_bb; ck_vc; ck_trustee }
    end
  done;
  { st_cfg = cfg;
    st_gctx = Group_ctx.default ();
    st_vc_keys = vc_keys;
    st_trustee_keys = trustee_keys;
    st_hmsk = Ballot_gen.msk_commitment ~seed;
    st_salt_msk = Ballot_gen.msk_salt ~seed;
    st_msk_shares = Ballot_gen.msk_shares ~seed ~threshold:(nv - fv) ~shares:nv;
    st_n_chunks = n_chunks;
    st_chunk_size = chunk_size }

(* In-memory setup: the chunked pass with an emit that fills arrays.
   Identical output to the pre-streaming implementation for any chunk
   size (the fork-order argument above). *)
let setup ?pool ?chunk_size (cfg : Types.config) ~seed =
  let n = cfg.Types.n_voters in
  let nv = cfg.Types.nv and nt = cfg.Types.nt in
  let ballots = Array.make n { Types.serial = 0;
                               part_a = { Types.lines = [||] };
                               part_b = { Types.lines = [||] } } in
  let vc_lines =
    Array.init nv (fun _ -> Array.init n (fun _ -> Array.make 2 [||]))
  in
  let bb_ballots = Array.make n { bb_serial = 0; bb_parts = [||] } in
  let trustee_ballots =
    Array.init nt (fun _ -> Array.init n (fun _ ->
        Array.make 2
          { t_shares = [||];
            t_zk_state_share = { Shamir_bytes.x = 0; Shamir_bytes.data = "" };
            t_zk_state_tag = Auth.Mac_tag [||] }))
  in
  let emit ck =
    let count = Array.length ck.ck_ballots in
    Array.blit ck.ck_ballots 0 ballots ck.ck_first count;
    Array.blit ck.ck_bb 0 bb_ballots ck.ck_first count;
    for node = 0 to nv - 1 do
      Array.blit ck.ck_vc.(node) 0 vc_lines.(node) ck.ck_first count
    done;
    for t = 0 to nt - 1 do
      Array.blit ck.ck_trustee.(t) 0 trustee_ballots.(t) ck.ck_first count
    done
  in
  let st = setup_chunks ?pool ?chunk_size cfg ~seed ~emit in
  { cfg; ballots;
    vc_keys = st.st_vc_keys; trustee_keys = st.st_trustee_keys;
    vc_init =
      Array.init nv (fun i ->
          { vc_id = i; vc_msk_share = st.st_msk_shares.(i); vc_lines = vc_lines.(i) });
    bb_init = { hmsk = st.st_hmsk; salt_msk = st.st_salt_msk };
    bb_ballots;
    trustee_init = Array.init nt (fun i -> { t_id = i; t_ballots = trustee_ballots.(i) }) }
