(* Commitment-scheme tests: lifted ElGamal (hiding/binding interface,
   homomorphism), unit-vector encodings. *)

module Nat = Dd_bignum.Nat
module Group_ctx = Dd_group.Group_ctx
module Elgamal = Dd_commit.Elgamal
module Unit_vector = Dd_commit.Unit_vector
module Drbg = Dd_crypto.Drbg

let rng () = Drbg.create ~seed:"commit-tests"

let test_commit_verify () =
  let rng = rng () in
  let c, o = Elgamal.commit_random rng ~msg:(Nat.of_int 7) in
  Alcotest.(check bool) "verifies" true (Elgamal.verify c o);
  Alcotest.(check bool) "wrong msg rejected" false
    (Elgamal.verify c { o with Elgamal.msg = Nat.of_int 8 });
  Alcotest.(check bool) "wrong rand rejected" false
    (Elgamal.verify c { o with Elgamal.rand = Nat.add o.Elgamal.rand Nat.one })

let test_homomorphism () =
  let rng = rng () in
  let c1, o1 = Elgamal.commit_random rng ~msg:(Nat.of_int 3) in
  let c2, o2 = Elgamal.commit_random rng ~msg:(Nat.of_int 4) in
  let c = Elgamal.add c1 c2 in
  let o = Elgamal.add_opening o1 o2 in
  Alcotest.(check bool) "sum verifies" true (Elgamal.verify c o);
  Alcotest.(check bool) "sum message is 7" true (Nat.equal o.Elgamal.msg (Nat.of_int 7))

let test_zero_commitment () =
  let z = Elgamal.zero_commitment in
  Alcotest.(check bool) "opens to 0/0" true
    (Elgamal.verify z { Elgamal.msg = Nat.zero; Elgamal.rand = Nat.zero });
  let rng = rng () in
  let c, o = Elgamal.commit_random rng ~msg:(Nat.of_int 5) in
  Alcotest.(check bool) "identity element" true
    (Elgamal.equal c (Elgamal.add c z));
  ignore o

let test_hiding_representation () =
  (* same message, different randomness: different commitments *)
  let rng = rng () in
  let c1, _ = Elgamal.commit_random rng ~msg:(Nat.of_int 1) in
  let c2, _ = Elgamal.commit_random rng ~msg:(Nat.of_int 1) in
  Alcotest.(check bool) "distinct commitments" false (Elgamal.equal c1 c2)

let test_encode_deterministic () =
  let rng = rng () in
  let c, _ = Elgamal.commit_random rng ~msg:Nat.one in
  Alcotest.(check string) "stable encoding" (Elgamal.encode c) (Elgamal.encode c)

(* --- unit vectors -------------------------------------------------------- *)

let test_unit_vector_basic () =
  let rng = rng () in
  let c, o = Unit_vector.commit rng ~options:4 ~choice:2 in
  Alcotest.(check bool) "verifies" true (Unit_vector.verify c o);
  Alcotest.(check bool) "is unit for 2" true (Unit_vector.opening_is_unit o ~choice:2);
  Alcotest.(check bool) "not unit for 1" false (Unit_vector.opening_is_unit o ~choice:1);
  Alcotest.(check int) "width" 4 (Array.length c)

let test_unit_vector_out_of_range () =
  let rng = rng () in
  Alcotest.check_raises "choice too large"
    (Invalid_argument "Unit_vector.commit: choice out of range")
    (fun () -> ignore (Unit_vector.commit rng ~options:3 ~choice:3))

let test_unit_vector_tally () =
  (* the headline homomorphic-tally property: sum of unit vectors opens
     to the per-option counts *)
  let rng = rng () in
  let votes = [ 0; 1; 1; 2; 1; 0 ] in
  let pairs = List.map (fun v -> Unit_vector.commit rng ~options:3 ~choice:v) votes in
  let csum = Unit_vector.sum ~options:3 (List.map fst pairs) in
  let osum = Unit_vector.sum_openings ~options:3 (List.map snd pairs) in
  Alcotest.(check bool) "sum verifies" true (Unit_vector.verify csum osum);
  Alcotest.(check (array int)) "counts" [| 2; 3; 1 |] (Unit_vector.counts_of_opening osum)

let test_unit_vector_length_mismatch () =
  let rng = rng () in
  let c3, _ = Unit_vector.commit rng ~options:3 ~choice:0 in
  let c4, _ = Unit_vector.commit rng ~options:4 ~choice:0 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Unit_vector.add: length mismatch")
    (fun () -> ignore (Unit_vector.add c3 c4))

(* --- batch verification ------------------------------------------------------ *)

module Batch = Dd_group.Batch

let test_elgamal_batch () =
  let rng = rng () in
  let items = Array.init 10 (fun i -> Elgamal.commit_random rng ~msg:(Nat.of_int i)) in
  Alcotest.(check bool) "empty batch" true (Elgamal.verify_batch rng [||]);
  Alcotest.(check bool) "10 valid" true (Elgamal.verify_batch rng items);
  List.iter
    (fun j ->
       let tampered = Array.copy items in
       let c, o = tampered.(j) in
       tampered.(j) <- (c, { o with Elgamal.rand = Nat.add o.Elgamal.rand Nat.one });
       Alcotest.(check bool) (Printf.sprintf "bad opening %d rejected" j) false
         (Elgamal.verify_batch rng tampered);
       let found =
         Batch.find_failures ~n:(Array.length tampered)
           ~check:(fun ~lo ~len ->
               Elgamal.verify_batch
                 (Drbg.create ~seed:(Printf.sprintf "eb%d.%d" lo len))
                 (Array.sub tampered lo len))
       in
       Alcotest.(check (list int)) (Printf.sprintf "bisection names %d" j) [ j ] found)
    [ 0; 4; 9 ]

let test_unit_vector_batch () =
  let rng = rng () in
  let items = List.init 6 (fun i -> Unit_vector.commit rng ~options:4 ~choice:(i mod 4)) in
  Alcotest.(check bool) "6 valid" true (Unit_vector.verify_batch rng items);
  (* forge one coordinate opening of vector 4 *)
  let tampered =
    List.mapi
      (fun i (c, o) ->
         if i <> 4 then (c, o)
         else
           (c,
            Array.mapi
              (fun j (op : Elgamal.opening) ->
                 if j = 1 then { op with Elgamal.rand = Nat.add op.Elgamal.rand Nat.one }
                 else op)
              o))
      items
  in
  Alcotest.(check bool) "tampered vector rejected" false
    (Unit_vector.verify_batch rng tampered);
  let arr = Array.of_list tampered in
  let found =
    Batch.find_failures ~n:(Array.length arr)
      ~check:(fun ~lo ~len ->
          Unit_vector.verify_batch
            (Drbg.create ~seed:(Printf.sprintf "uv%d.%d" lo len))
            (Array.to_list (Array.sub arr lo len)))
  in
  Alcotest.(check (list int)) "bisection names vector 4" [ 4 ] found

(* --- properties ----------------------------------------------------------- *)

let arb_msg = QCheck.map Nat.of_int QCheck.(int_range 0 1000)

let prop_commit_verify =
  QCheck.Test.make ~name:"commit/verify completeness" ~count:20 arb_msg
    (fun m ->
       let rng = Drbg.create ~seed:("p1" ^ Nat.to_decimal m) in
       let c, o = Elgamal.commit_random rng ~msg:m in
       Elgamal.verify c o)

let prop_homomorphic =
  QCheck.Test.make ~name:"homomorphic addition" ~count:20 (QCheck.pair arb_msg arb_msg)
    (fun (a, b) ->
       let rng = Drbg.create ~seed:(Nat.to_decimal a ^ "." ^ Nat.to_decimal b) in
       let c1, o1 = Elgamal.commit_random rng ~msg:a in
       let c2, o2 = Elgamal.commit_random rng ~msg:b in
       Elgamal.verify (Elgamal.add c1 c2) (Elgamal.add_opening o1 o2))

(* Bit-term commitment jobs ([Elgamal.commit_bit_jobs]: c2 = b*G + r*H
   as one H comb lane and a masked merge of G) in one lockstep group
   with ordinary one- and two-lane jobs: every commitment's bytes equal
   [Elgamal.commit]'s, for b in {0, 1} and edge or random r. *)
let edge_rands =
  let n = Dd_group.Curve.order in
  [| Nat.zero; Nat.one; Nat.two; Nat.sub n Nat.one; Nat.sub n Nat.two |]

let prop_bit_jobs_match_commit =
  QCheck.Test.make ~name:"bit-term commitment jobs = commit" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 6) (pair bool (int_range 0 9)))
    (fun specs ->
       let rng =
         Drbg.create
           ~seed:(String.concat "," (List.map (fun (b, e) -> Printf.sprintf "%b%d" b e) specs))
       in
       let openings =
         List.map
           (fun (b, e) ->
              { Elgamal.msg = (if b then Nat.one else Nat.zero);
                rand =
                  (if e < Array.length edge_rands then edge_rands.(e)
                   else Dd_group.Curve.random_scalar rng) })
           specs
       in
       let g = Group_ctx.g_table () and h = Group_ctx.h_table () in
       let jobs =
         List.concat_map
           (fun (o : Elgamal.opening) ->
              let c1, c2 = Elgamal.commit_bit_jobs o in
              [ c1; c2; [ (g, o.rand); (h, Nat.two) ] ])
           openings
       in
       let pts = Dd_group.Curve.mul_base_batch (Array.of_list jobs) in
       List.for_all Fun.id
         (List.mapi
            (fun i (o : Elgamal.opening) ->
               let want = Elgamal.commit ~msg:o.msg ~rand:o.rand in
               let filler =
                 Dd_group.Curve.add (Group_ctx.mul_g o.rand) (Group_ctx.mul_h Nat.two)
               in
               String.equal (Elgamal.encode want)
                 (Elgamal.encode (Elgamal.make ~c1:pts.(3 * i) ~c2:pts.((3 * i) + 1)))
               && Dd_group.Curve.equal filler pts.((3 * i) + 2))
            openings))

let test_bit_jobs_reject_non_bit () =
  let c1, c2 = Elgamal.commit_bit_jobs { Elgamal.msg = Nat.two; rand = Nat.one } in
  Alcotest.check_raises "msg 2" (Invalid_argument "Curve.mul_base_batch: bit term above 1")
    (fun () -> ignore (Dd_group.Curve.mul_base_batch [| c1; c2 |]))

let prop_unit_vector_sum_counts =
  QCheck.Test.make ~name:"unit-vector tally counts" ~count:10
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_range 0 2))
    (fun votes ->
       let rng = Drbg.create ~seed:(String.concat "" (List.map string_of_int votes)) in
       let pairs = List.map (fun v -> Unit_vector.commit rng ~options:3 ~choice:v) votes in
       let osum = Unit_vector.sum_openings ~options:3 (List.map snd pairs) in
       let counts = Unit_vector.counts_of_opening osum in
       let expected = Array.make 3 0 in
       List.iter (fun v -> expected.(v) <- expected.(v) + 1) votes;
       counts = expected)

let () =
  Alcotest.run "commit"
    [ ("elgamal",
       [ Alcotest.test_case "commit/verify" `Quick test_commit_verify;
         Alcotest.test_case "homomorphism" `Quick test_homomorphism;
         Alcotest.test_case "zero commitment" `Quick test_zero_commitment;
         Alcotest.test_case "randomized representation" `Quick test_hiding_representation;
         Alcotest.test_case "encoding" `Quick test_encode_deterministic ]);
      ("unit-vector",
       [ Alcotest.test_case "basic" `Quick test_unit_vector_basic;
         Alcotest.test_case "range check" `Quick test_unit_vector_out_of_range;
         Alcotest.test_case "homomorphic tally" `Quick test_unit_vector_tally;
         Alcotest.test_case "length mismatch" `Quick test_unit_vector_length_mismatch ]);
      ("batch",
       [ Alcotest.test_case "elgamal openings" `Quick test_elgamal_batch;
         Alcotest.test_case "unit vectors" `Quick test_unit_vector_batch;
         Alcotest.test_case "bit jobs reject a non-bit" `Quick test_bit_jobs_reject_non_bit ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_commit_verify; prop_homomorphic; prop_bit_jobs_match_commit;
           prop_unit_vector_sum_counts ]) ]
