(* Core-library unit tests: ballot generation, the virtual ballot
   store, authenticators, UCERTs, EA setup invariants, liveness bounds,
   and the majority BB reader. *)

module Types = Ddemos.Types
module Ballot_gen = Ddemos.Ballot_gen
module Ballot_store = Ddemos.Ballot_store
module Auth = Ddemos.Auth
module Messages = Ddemos.Messages
module Ea = Ddemos.Ea
module Liveness = Ddemos.Liveness
module Drbg = Dd_crypto.Drbg
module Shamir_bytes = Dd_vss.Shamir_bytes

let cfg = { Types.default_config with Types.n_voters = 4; Types.m_options = 3 }

(* --- config validation -------------------------------------------------- *)

let test_config_validation () =
  let ok c = Types.validate_config c = Ok () in
  Alcotest.(check bool) "default ok" true (ok Types.default_config);
  Alcotest.(check bool) "nv too small" false (ok { cfg with Types.nv = 3; Types.fv = 1 });
  Alcotest.(check bool) "nb too small" false (ok { cfg with Types.nb = 2; Types.fb = 1 });
  Alcotest.(check bool) "ht > nt" false (ok { cfg with Types.ht = 4; Types.nt = 3 });
  Alcotest.(check bool) "one option" false (ok { cfg with Types.m_options = 1 });
  Alcotest.(check bool) "16 VC, 5 faults" true
    (ok { cfg with Types.nv = 16; Types.fv = 5 })

(* --- ballot generation ---------------------------------------------------- *)

let test_ballot_deterministic () =
  let b1 = Ballot_gen.voter_ballot ~seed:"s" ~serial:3 ~m:4 in
  let b2 = Ballot_gen.voter_ballot ~seed:"s" ~serial:3 ~m:4 in
  Alcotest.(check bool) "same seed same ballot" true (b1 = b2);
  let b3 = Ballot_gen.voter_ballot ~seed:"s" ~serial:4 ~m:4 in
  Alcotest.(check bool) "different serial differs" false (b1 = b3)

let test_ballot_shape () =
  let b = Ballot_gen.voter_ballot ~seed:"shape" ~serial:0 ~m:5 in
  Alcotest.(check int) "A has m lines" 5 (Array.length b.Types.part_a.Types.lines);
  Alcotest.(check int) "B has m lines" 5 (Array.length b.Types.part_b.Types.lines);
  Array.iter
    (fun (l : Types.ballot_line) ->
       Alcotest.(check int) "code 160 bits" Types.vote_code_bytes (String.length l.Types.vote_code);
       Alcotest.(check int) "receipt 64 bits" Types.receipt_bytes (String.length l.Types.receipt))
    b.Types.part_a.Types.lines

let test_ballot_codes_unique () =
  let b = Ballot_gen.voter_ballot ~seed:"uniq" ~serial:0 ~m:8 in
  let codes =
    Array.to_list (Array.map (fun l -> l.Types.vote_code) b.Types.part_a.Types.lines)
    @ Array.to_list (Array.map (fun l -> l.Types.vote_code) b.Types.part_b.Types.lines)
  in
  Alcotest.(check int) "all 16 distinct" 16 (List.length (List.sort_uniq compare codes))

let test_permutation_hides_position () =
  (* the vc view is permuted: the printed option j is generally not at
     position j; across many ballots both arrangements occur *)
  let distinct = ref false in
  for serial = 0 to 20 do
    let mat = Ballot_gen.gen_part ~seed:"perm" ~serial ~part:Types.A ~m:4 in
    if mat.Ballot_gen.perm <> [| 0; 1; 2; 3 |] then distinct := true
  done;
  Alcotest.(check bool) "some permutation is non-identity" true !distinct

let test_hash_validates_code () =
  let m = 3 in
  let mat = Ballot_gen.gen_part ~seed:"hash" ~serial:7 ~part:Types.B ~m in
  for pos = 0 to m - 1 do
    Alcotest.(check string) "hash matches"
      mat.Ballot_gen.hashes.(pos)
      (Ballot_gen.code_hash ~code:mat.Ballot_gen.codes.(pos) ~salt:mat.Ballot_gen.salts.(pos))
  done

let test_msk_commitment () =
  let h = Ballot_gen.msk_commitment ~seed:"mskseed" in
  Alcotest.(check string) "Hmsk = SHA256(msk || salt)" h
    (Dd_crypto.Sha256.digest_list
       [ Ballot_gen.msk ~seed:"mskseed"; Ballot_gen.msk_salt ~seed:"mskseed" ]);
  (* shares reconstruct msk *)
  let shares = Ballot_gen.msk_shares ~seed:"mskseed" ~threshold:3 ~shares:4 in
  Alcotest.(check string) "msk shares reconstruct" (Ballot_gen.msk ~seed:"mskseed")
    (Shamir_bytes.reconstruct ~threshold:3 [ shares.(0); shares.(1); shares.(3) ])

(* --- ballot store ---------------------------------------------------------- *)

let test_virtual_store_verifies_codes () =
  let store = Ballot_store.virtual_prf ~seed:"vs" ~cfg ~node:1 in
  let ballot = Ballot_gen.voter_ballot ~seed:"vs" ~serial:2 ~m:cfg.Types.m_options in
  let code = ballot.Types.part_a.Types.lines.(1).Types.vote_code in
  (match Ballot_store.verify_vote_code store ~serial:2 ~vote_code:code with
   | Some (part, _, _) -> Alcotest.(check bool) "found in part A" true (part = Types.A)
   | None -> Alcotest.fail "valid code not found");
  Alcotest.(check bool) "bogus code rejected" true
    (Ballot_store.verify_vote_code store ~serial:2 ~vote_code:(String.make 20 'x') = None);
  Alcotest.(check bool) "wrong serial rejected" true
    (Ballot_store.verify_vote_code store ~serial:3 ~vote_code:code = None);
  Alcotest.(check bool) "out of range serial" true
    (Ballot_store.verify_vote_code store ~serial:99 ~vote_code:code = None)

let test_virtual_store_shares_reconstruct () =
  (* each node derives its own share; a quorum of nodes' shares
     reconstructs the printed receipt *)
  let stores = List.init cfg.Types.nv (fun node -> Ballot_store.virtual_prf ~seed:"vs" ~cfg ~node) in
  let ballot = Ballot_gen.voter_ballot ~seed:"vs" ~serial:1 ~m:cfg.Types.m_options in
  let quorum = cfg.Types.nv - cfg.Types.fv in
  (* locate the printed option 0 of part A in the permuted store view *)
  let code = ballot.Types.part_a.Types.lines.(0).Types.vote_code in
  let expected_receipt = ballot.Types.part_a.Types.lines.(0).Types.receipt in
  let shares =
    List.filter_map
      (fun store ->
         match Ballot_store.verify_vote_code store ~serial:1 ~vote_code:code with
         | Some (_, _, line) -> Some line.Types.receipt_share
         | None -> None)
      stores
  in
  Alcotest.(check int) "every node validates" cfg.Types.nv (List.length shares);
  let subset = List.filteri (fun i _ -> i < quorum) shares in
  Alcotest.(check string) "quorum reconstructs printed receipt" expected_receipt
    (Shamir_bytes.reconstruct ~threshold:quorum subset)

(* --- authenticators ---------------------------------------------------------- *)

let test_auth_schnorr_clique () =
  let keys = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~seed:"clique" ~n:4 in
  let tag = Auth.sign keys.(1) "msg" in
  Alcotest.(check bool) "2 verifies 1" true (Auth.verify keys.(2) ~signer:1 "msg" tag);
  Alcotest.(check bool) "0 verifies 1" true (Auth.verify keys.(0) ~signer:1 "msg" tag);
  Alcotest.(check bool) "wrong signer" false (Auth.verify keys.(2) ~signer:0 "msg" tag);
  Alcotest.(check bool) "wrong msg" false (Auth.verify keys.(2) ~signer:1 "msG" tag)

(* Dealt keys are normalized once at dealing, so encoding one into a
   Schnorr challenge costs no inversion. *)
let test_auth_keys_affine () =
  let keys = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~seed:"clique" ~n:5 in
  Array.iter
    (fun (k : Auth.keys) ->
       Array.iteri
         (fun i pk ->
            Alcotest.(check bool) (Printf.sprintf "pk %d affine" i) true
              (Dd_group.Curve.is_affine pk))
         k.Auth.pks)
    keys

let test_auth_mac_clique () =
  let keys = Auth.deal_clique ~scheme:Auth.Mac_scheme ~seed:"clique" ~n:4 in
  let tag = Auth.sign keys.(3) "m" in
  Alcotest.(check bool) "0 verifies 3" true (Auth.verify keys.(0) ~signer:3 "m" tag);
  Alcotest.(check bool) "1 verifies 3" true (Auth.verify keys.(1) ~signer:3 "m" tag);
  Alcotest.(check bool) "wrong message" false (Auth.verify keys.(1) ~signer:3 "x" tag);
  (* MAC vector forged by swapping in a tag from another message *)
  let other = Auth.sign keys.(2) "m" in
  Alcotest.(check bool) "wrong signer mac" false (Auth.verify keys.(1) ~signer:3 "m" other)

let test_auth_schemes_not_interchangeable () =
  let s = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~seed:"x" ~n:3 in
  let m = Auth.deal_clique ~scheme:Auth.Mac_scheme ~seed:"x" ~n:3 in
  let mac_tag = Auth.sign m.(0) "body" in
  Alcotest.(check bool) "mac tag in schnorr scheme rejected" false
    (Auth.verify s.(1) ~signer:0 "body" mac_tag)

(* --- UCERT ------------------------------------------------------------------- *)

let test_ucert_verification () =
  let keys = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~seed:"uc" ~n:5 in
  let election_id = "e" and serial = 9 and code = "votecode" in
  let body = Messages.endorsement_body ~election_id ~serial ~code in
  let endorsements = List.init 3 (fun i -> (i, Auth.sign keys.(i) body)) in
  let ucert = { Messages.u_serial = serial; Messages.u_code = code; Messages.endorsements } in
  Alcotest.(check bool) "valid" true
    (Messages.verify_ucert keys.(4) ~election_id ~quorum:3 ucert);
  Alcotest.(check bool) "below quorum" false
    (Messages.verify_ucert keys.(4) ~election_id ~quorum:4 ucert);
  (* duplicated signer does not satisfy quorum *)
  let dup = { ucert with Messages.endorsements =
                           (0, Auth.sign keys.(0) body) :: ucert.Messages.endorsements } in
  Alcotest.(check bool) "duplicates don't count" false
    (Messages.verify_ucert keys.(4) ~election_id ~quorum:4 dup);
  (* a tag over a different code breaks the certificate *)
  let bad_body = Messages.endorsement_body ~election_id ~serial ~code:"other" in
  let forged = { ucert with Messages.endorsements =
                              [ (0, Auth.sign keys.(0) bad_body);
                                (1, Auth.sign keys.(1) body);
                                (2, Auth.sign keys.(2) body) ] } in
  Alcotest.(check bool) "mismatched tag rejected" false
    (Messages.verify_ucert keys.(4) ~election_id ~quorum:3 forged)

(* --- EA setup invariants -------------------------------------------------------- *)

let setup = lazy (Ea.setup cfg ~seed:"ea-test")

let test_ea_shapes () =
  let s = Lazy.force setup in
  Alcotest.(check int) "ballots" cfg.Types.n_voters (Array.length s.Ea.ballots);
  Alcotest.(check int) "vc inits" cfg.Types.nv (Array.length s.Ea.vc_init);
  Alcotest.(check int) "trustee inits" cfg.Types.nt (Array.length s.Ea.trustee_init);
  Alcotest.(check int) "bb ballots" cfg.Types.n_voters
    (Array.length s.Ea.bb_ballots)

let test_ea_commitments_match_printed_options () =
  (* the trustee opening shares reconstruct unit vectors consistent
     with the printed ballots under the permutation *)
  let s = Lazy.force setup in
  let serial = 0 in
  let mat = Ballot_gen.gen_part ~seed:"ea-test" ~serial ~part:Types.A ~m:cfg.Types.m_options in
  let entries = s.Ea.bb_ballots.(serial).Ea.bb_parts.(0) in
  for pos = 0 to cfg.Types.m_options - 1 do
    (* reconstruct opening from ht trustee shares *)
    let shares =
      List.init cfg.Types.ht (fun t ->
          s.Ea.trustee_init.(t).Ea.t_ballots.(serial).(0).Ea.t_shares.(pos))
    in
    let opening =
      Array.init cfg.Types.m_options (fun j ->
          Dd_vss.Elgamal_vss.reconstruct ~threshold:cfg.Types.ht
            (List.map (fun sh -> sh.(j)) shares))
    in
    Alcotest.(check bool) (Printf.sprintf "pos %d opens commitment" pos) true
      (Dd_commit.Unit_vector.verify entries.(pos).Ea.commitment opening);
    (* the committed option equals the printed option at this position *)
    let committed = ref (-1) in
    Array.iteri
      (fun j (o : Dd_commit.Elgamal.opening) ->
         if Dd_bignum.Nat.equal o.Dd_commit.Elgamal.msg Dd_bignum.Nat.one then committed := j)
      opening;
    Alcotest.(check int) (Printf.sprintf "pos %d option" pos)
      (let inv = ref (-1) in
       Array.iteri (fun option p -> if p = pos then inv := option) mat.Ballot_gen.perm;
       !inv)
      !committed
  done

let test_ea_encrypted_codes_decrypt () =
  let s = Lazy.force setup in
  let msk = Ballot_gen.msk ~seed:"ea-test" in
  let serial = 1 in
  let mat = Ballot_gen.gen_part ~seed:"ea-test" ~serial ~part:Types.B ~m:cfg.Types.m_options in
  let entries = s.Ea.bb_ballots.(serial).Ea.bb_parts.(1) in
  Array.iteri
    (fun pos (e : Ea.bb_part_entry) ->
       let iv, ct = e.Ea.enc_code in
       Alcotest.(check string) (Printf.sprintf "pos %d code" pos)
         mat.Ballot_gen.codes.(pos)
         (Dd_crypto.Aes128.cbc_decrypt ~key:msk ~iv ct))
    entries

(* Every curve point a streamed chunk carries (commitments, ZK first
   moves, signature nonce commitments) comes out of the lockstep batch
   affine, so the segment encoder inverts nothing. *)
let test_ea_chunk_points_affine () =
  let points = ref 0 in
  let check what p =
    incr points;
    if not (Dd_group.Curve.is_affine p) then Alcotest.failf "%s point is not affine" what
  in
  let tag what = function
    | Auth.Schnorr_tag s -> check what (Dd_sig.Schnorr.commitment s)
    | Auth.Mac_tag _ -> Alcotest.failf "%s: expected a Schnorr tag" what
  in
  let elgamal what c = let c1, c2 = Dd_commit.Elgamal.components c in check what c1; check what c2 in
  let _ =
    Ea.setup_chunks ~chunk_size:3 cfg ~seed:"ea-affine" ~emit:(fun ck ->
        Array.iter
          (fun (b : Ea.bb_ballot) ->
             Array.iter
               (Array.iter (fun (e : Ea.bb_part_entry) ->
                    Array.iter (elgamal "commitment") e.Ea.commitment;
                    Array.iter (check "zk first move")
                      (Dd_zkp.Ballot_proof.first_move_points e.Ea.zk_first)))
               b.Ea.bb_parts)
          ck.Ea.ck_bb;
        Array.iter
          (Array.iter
             (Array.iter
                (Array.iter (fun (l : Types.vc_line) ->
                     Option.iter (tag "share tag") l.Types.share_tag))))
          ck.Ea.ck_vc;
        Array.iter
          (Array.iter (Array.iter (fun (d : Ea.trustee_part_data) ->
               tag "zk state tag" d.Ea.t_zk_state_tag)))
          ck.Ea.ck_trustee)
  in
  (* per part: m (2m + 4m + 2) points and nv m + nt tags *)
  let m = cfg.Types.m_options in
  let per_part = (m * ((2 * m) + (4 * m) + 2)) + (cfg.Types.nv * m) + cfg.Types.nt in
  Alcotest.(check int) "points checked" (2 * cfg.Types.n_voters * per_part) !points

(* The comb work of one ballot part, counted exactly at election-day's
   shape (m = 3, nv = 4, nt = 3, ht = 2): 12 + 3 Schnorr nonce
   commitments, and per position 6 commitment points and 14 first-move
   points. Each commitment's c2 = b*G + r*H runs one comb lane, on H;
   each simulated OR branch's t2 runs two: 75 jobs, 84 lanes. *)
let test_ea_part_comb_counts () =
  let keys seed n = Auth.deal_clique ~scheme:Auth.Schnorr_scheme ~seed ~n in
  let ea_vc = (keys "vc-counts" (cfg.Types.nv + 1)).(cfg.Types.nv) in
  let ea_trustee = (keys "trustee-counts" (cfg.Types.nt + 1)).(cfg.Types.nt) in
  List.iter
    (fun part ->
       let d =
         Ea.draw_part cfg ~seed:"counts" ~ea_vc ~ea_trustee
           (Dd_crypto.Drbg.create ~seed:"counts") ~serial:0 ~part
       in
       let jobs = Ea.part_jobs d in
       Alcotest.(check int) "jobs" 75 (List.length jobs);
       Alcotest.(check int) "jobs_per_part = part_jobs" (List.length jobs) (Ea.jobs_per_part cfg);
       Alcotest.(check int) "comb lanes" 84
         (List.fold_left (fun n j -> n + Dd_group.Curve.comb_lanes j) 0 jobs))
    [ Types.A; Types.B ]

let test_ea_rejects_bad_config () =
  Alcotest.check_raises "bad config" (Invalid_argument "Ea.setup: need Nv >= 3 fv + 1")
    (fun () -> ignore (Ea.setup { cfg with Types.nv = 2 } ~seed:"x"))

(* --- liveness bounds (Table I / Theorem 1) ---------------------------------------- *)

let test_twait_formula () =
  let p = { Liveness.nv = 4; fv = 1; t_comp = 0.01; delta_drift = 0.001; delta_msg = 0.05 } in
  (* (2*4+4)*0.01 + 12*0.001 + 6*0.05 = 0.12 + 0.012 + 0.3 *)
  Alcotest.(check bool) "Twait" true (abs_float (Liveness.t_wait p -. 0.432) < 1e-9)

let test_table1_monotone () =
  let p = { Liveness.nv = 16; fv = 5; t_comp = 0.01; delta_drift = 0.001; delta_msg = 0.05 } in
  let bounds = List.map (Liveness.step_bound p) (Liveness.steps p) in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "bounds increase along the protocol" true (monotone bounds);
  Alcotest.(check int) "15 rows as in Table I" 15 (List.length bounds);
  (* the last row equals Twait above the start *)
  let last = List.nth bounds (List.length bounds - 1) in
  Alcotest.(check bool) "last row = Twait" true (abs_float (last -. Liveness.t_wait p) < 1e-9)

let test_receipt_probability () =
  let p = { Liveness.nv = 4; fv = 1; t_comp = 0.; delta_drift = 0.; delta_msg = 0. } in
  (* y=1: 1 - 1/4 = 0.75; fv+1 attempts: certainty *)
  Alcotest.(check bool) "y=1" true (abs_float (Liveness.receipt_probability p ~y:1 -. 0.75) < 1e-9);
  Alcotest.(check bool) "y=fv+1 certain" true (Liveness.receipt_probability p ~y:2 = 1.0);
  (* theorem's bound: probability > 1 - 3^-y *)
  let p16 = { p with Liveness.nv = 16; fv = 5 } in
  for y = 1 to 5 do
    let pr = Liveness.receipt_probability p16 ~y in
    Alcotest.(check bool) (Printf.sprintf "y=%d beats 1-3^-y" y) true
      (pr > 1. -. (3. ** float_of_int (-y)))
  done

let () =
  Alcotest.run "core"
    [ ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ("ballot-gen",
       [ Alcotest.test_case "deterministic" `Quick test_ballot_deterministic;
         Alcotest.test_case "shape" `Quick test_ballot_shape;
         Alcotest.test_case "codes unique" `Quick test_ballot_codes_unique;
         Alcotest.test_case "permutation" `Quick test_permutation_hides_position;
         Alcotest.test_case "hash validation" `Quick test_hash_validates_code;
         Alcotest.test_case "msk commitment + shares" `Quick test_msk_commitment ]);
      ("ballot-store",
       [ Alcotest.test_case "code verification" `Quick test_virtual_store_verifies_codes;
         Alcotest.test_case "share reconstruction" `Quick test_virtual_store_shares_reconstruct ]);
      ("auth",
       [ Alcotest.test_case "schnorr clique" `Quick test_auth_schnorr_clique;
         Alcotest.test_case "dealt keys affine" `Quick test_auth_keys_affine;
         Alcotest.test_case "mac clique" `Quick test_auth_mac_clique;
         Alcotest.test_case "scheme separation" `Quick test_auth_schemes_not_interchangeable ]);
      ("ucert", [ Alcotest.test_case "verification" `Quick test_ucert_verification ]);
      ("ea",
       [ Alcotest.test_case "shapes" `Quick test_ea_shapes;
         Alcotest.test_case "commitments match ballots" `Quick test_ea_commitments_match_printed_options;
         Alcotest.test_case "encrypted codes" `Quick test_ea_encrypted_codes_decrypt;
         Alcotest.test_case "config check" `Quick test_ea_rejects_bad_config;
         Alcotest.test_case "chunk points affine" `Quick test_ea_chunk_points_affine;
         Alcotest.test_case "part comb counts" `Quick test_ea_part_comb_counts ]);
      ("liveness",
       [ Alcotest.test_case "Twait formula" `Quick test_twait_formula;
         Alcotest.test_case "Table I monotone" `Quick test_table1_monotone;
         Alcotest.test_case "receipt probability" `Quick test_receipt_probability ]) ]
