(* Secret-sharing tests: GF(256) field, byte-wise Shamir, scalar Shamir,
   ElGamal-opening shares — reconstruction, threshold secrecy sanity,
   reconstruct-and-check, homomorphism. *)

module Gf256 = Dd_vss.Gf256
module Shamir_bytes = Dd_vss.Shamir_bytes
module Shamir_scalar = Dd_vss.Shamir_scalar
module Elgamal_vss = Dd_vss.Elgamal_vss
module Sc = Dd_bignum.Sc
module Drbg = Dd_crypto.Drbg
module Group_ctx = Dd_group.Group_ctx
module Elgamal = Dd_commit.Elgamal

let rng () = Drbg.create ~seed:"vss-tests"

(* --- GF(256) ------------------------------------------------------------- *)

let test_gf256_field_axioms () =
  (* exhaustive checks over the whole field where cheap *)
  for a = 0 to 255 do
    Alcotest.(check int) "a+a=0" 0 (Gf256.add a a);
    Alcotest.(check int) "a*1=a" a (Gf256.mul a 1);
    Alcotest.(check int) "a*0=0" 0 (Gf256.mul a 0);
    if a <> 0 then Alcotest.(check int) "a * a^-1 = 1" 1 (Gf256.mul a (Gf256.div 1 a))
  done

let test_gf256_mul_matches_aes () =
  (* known products in the AES field *)
  Alcotest.(check int) "0x53 * 0xCA = 1" 1 (Gf256.mul 0x53 0xCA);
  Alcotest.(check int) "2 * 0x80 = 0x1b" 0x1b (Gf256.mul 2 0x80)

let test_gf256_inv_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Gf256.div 1 0))

let test_gf256_poly_eval () =
  (* p(x) = 5 + 3x over GF(256): p(0)=5, p(1)=6 (xor) *)
  Alcotest.(check int) "constant term" 5 (Gf256.poly_eval [| 5; 3 |] 0);
  Alcotest.(check int) "at 1" (5 lxor 3) (Gf256.poly_eval [| 5; 3 |] 1)

(* --- Shamir over bytes ----------------------------------------------------- *)

let test_shamir_bytes_roundtrip () =
  let rng = rng () in
  let secret = "the 64-bit receipt!" in
  let shares = Shamir_bytes.split rng ~secret ~threshold:3 ~shares:5 in
  Alcotest.(check int) "share count" 5 (Array.length shares);
  (* any 3 shares reconstruct *)
  let pick idxs = List.map (fun i -> shares.(i)) idxs in
  List.iter
    (fun idxs ->
       Alcotest.(check string) "reconstruct" secret
         (Shamir_bytes.reconstruct ~threshold:3 (pick idxs)))
    [ [ 0; 1; 2 ]; [ 2; 3; 4 ]; [ 0; 2; 4 ]; [ 4; 1; 3 ] ]

let test_shamir_bytes_below_threshold_differs () =
  (* 2-of-5 shares interpolated as if threshold were 2 must NOT yield
     the secret (information-theoretic hiding sanity check) *)
  let rng = rng () in
  let secret = "secret!!" in
  let shares = Shamir_bytes.split rng ~secret ~threshold:3 ~shares:5 in
  let fake = Shamir_bytes.reconstruct ~threshold:2 [ shares.(0); shares.(1) ] in
  Alcotest.(check bool) "under-threshold garbage" false (String.equal fake secret)

let test_shamir_bytes_validation () =
  let rng = rng () in
  let shares = Shamir_bytes.split rng ~secret:"s" ~threshold:2 ~shares:3 in
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Shamir_bytes.reconstruct: need exactly threshold shares")
    (fun () -> ignore (Shamir_bytes.reconstruct ~threshold:2 [ shares.(0) ]));
  Alcotest.check_raises "duplicate x"
    (Invalid_argument "Shamir_bytes.reconstruct: duplicate x")
    (fun () -> ignore (Shamir_bytes.reconstruct ~threshold:2 [ shares.(0); shares.(0) ]));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Shamir_bytes.split: bad threshold")
    (fun () -> ignore (Shamir_bytes.split rng ~secret:"s" ~threshold:4 ~shares:3))

let prop_shamir_bytes =
  QCheck.Test.make ~name:"k-of-n byte sharing reconstructs" ~count:50
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 40)) (int_range 1 7))
    (fun (secret, k) ->
       let n = k + 3 in
       let rng = Drbg.create ~seed:("sb" ^ secret ^ string_of_int k) in
       let shares = Shamir_bytes.split rng ~secret ~threshold:k ~shares:n in
       let subset = Array.to_list (Array.sub shares (n - k) k) in
       String.equal secret (Shamir_bytes.reconstruct ~threshold:k subset))

(* --- Shamir over scalars ---------------------------------------------------- *)

let test_shamir_scalar_roundtrip () =
  let rng = rng () in
  let secret = Option.get (Sc.of_bytes "\xde\xad\xbe\xef\xca\xfe\xba\xbe\x01\x23\x45\x67\x89") in
  let shares = Shamir_scalar.split rng ~secret ~threshold:3 ~shares:6 in
  let subset = [ shares.(5); shares.(0); shares.(3) ] in
  Alcotest.(check bool) "reconstructs" true
    (Sc.equal secret (Shamir_scalar.reconstruct ~threshold:3 subset))

(* Share-wise addition, as a trustee sums its shares over the tally set
   ([Elgamal_vss.sum_shares]): both scalars of an opening add. *)
let test_shamir_scalar_homomorphic () =
  let rng = rng () in
  let a = { Elgamal.msg = Sc.of_int 111; rand = Sc.of_int 5 }
  and b = { Elgamal.msg = Sc.of_int 222; rand = Sc.of_int 6 } in
  let sa = Elgamal_vss.deal rng ~opening:a ~threshold:2 ~shares:4 in
  let sb = Elgamal_vss.deal rng ~opening:b ~threshold:2 ~shares:4 in
  let sum = Array.init 4 (fun i -> Elgamal_vss.sum_shares ~x:(i + 1) [ sa.(i); sb.(i) ]) in
  let o = Elgamal_vss.reconstruct ~threshold:2 [ sum.(1); sum.(3) ] in
  Alcotest.(check bool) "share-wise sum reconstructs a+b" true
    (Sc.equal (Sc.of_int 333) o.Elgamal.msg && Sc.equal (Sc.of_int 11) o.Elgamal.rand)

let test_shamir_scalar_mismatched_x () =
  let rng = rng () in
  let sa =
    Elgamal_vss.deal rng ~opening:{ Elgamal.msg = Sc.one; rand = Sc.one } ~threshold:2
      ~shares:3
  in
  Alcotest.check_raises "x mismatch"
    (Invalid_argument "Elgamal_vss.add_shares: mismatched evaluation points")
    (fun () -> ignore (Elgamal_vss.sum_shares ~x:1 [ sa.(0); sa.(1) ]))

(* --- ElGamal-opening VSS ------------------------------------------------------ *)

(* The board's check: any [threshold] shares reconstruct an opening of
   the public commitment. *)
let test_elgamal_vss_end_to_end () =
  let rng = rng () in
  let commitment, opening = Elgamal.commit_random rng ~msg:(Sc.of_int 1) in
  let shares = Elgamal_vss.deal rng ~opening ~threshold:2 ~shares:3 in
  List.iter
    (fun (i, j) ->
       let o = Elgamal_vss.reconstruct ~threshold:2 [ shares.(i); shares.(j) ] in
       Alcotest.(check bool) (Printf.sprintf "shares %d, %d open the commitment" i j) true
         (Elgamal.verify commitment o);
       Alcotest.(check bool) "message preserved" true (Sc.equal o.Elgamal.msg Sc.one))
    [ (0, 1); (0, 2); (1, 2) ]

(* A tampered share, in either scalar, reconstructs an opening that
   fails to open the commitment. *)
let test_elgamal_vss_tamper () =
  let rng = rng () in
  let commitment, opening = Elgamal.commit_random rng ~msg:Sc.zero in
  let shares = Elgamal_vss.deal rng ~opening ~threshold:2 ~shares:3 in
  let s = shares.(0) in
  List.iter
    (fun (what, bad) ->
       let o = Elgamal_vss.reconstruct ~threshold:2 [ bad; shares.(2) ] in
       Alcotest.(check bool) (what ^ " tampered: opening rejected") false
         (Elgamal.verify commitment o))
    [ ("msg", { s with Elgamal_vss.msg = Sc.add s.Elgamal_vss.msg Sc.one });
      ("rand", { s with Elgamal_vss.rand = Sc.add s.Elgamal_vss.rand Sc.one }) ]

let test_elgamal_vss_homomorphic_tally () =
  (* the trustee workflow in miniature: sum shares over a "tally set",
     reconstruct one opening of the homomorphic total *)
  let rng = rng () in
  let votes = [ 1; 0; 1; 1 ] in   (* option-0 coordinate values of four ballots *)
  let dealt =
    List.map
      (fun v ->
         let c, o = Elgamal.commit_random rng ~msg:(Sc.of_int v) in
         (c, Elgamal_vss.deal rng ~opening:o ~threshold:2 ~shares:3))
      votes
  in
  let esum = Elgamal.sum (List.map fst dealt) in
  let trustee_share x =
    Elgamal_vss.sum_shares ~x (List.map (fun (_, sh) -> sh.(x - 1)) dealt)
  in
  let total =
    Elgamal_vss.reconstruct ~threshold:2 [ trustee_share 1; trustee_share 3 ]
  in
  Alcotest.(check bool) "total opens Esum" true (Elgamal.verify esum total);
  Alcotest.(check int) "count = 3" 3 (Sc.to_int total.Elgamal.msg);
  let bad = { (trustee_share 3) with Elgamal_vss.msg = Sc.one } in
  Alcotest.(check bool) "tampered total share: opening rejected" false
    (Elgamal.verify esum (Elgamal_vss.reconstruct ~threshold:2 [ trustee_share 1; bad ]))

let prop_scalar_shamir =
  QCheck.Test.make ~name:"scalar k-of-n reconstructs" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 5))
    (fun (s, k) ->
       let n = k + 2 in
       let rng = Drbg.create ~seed:(Printf.sprintf "ss%d.%d" s k) in
       let secret = Sc.of_int s in
       let shares = Shamir_scalar.split rng ~secret ~threshold:k ~shares:n in
       let subset = Array.to_list (Array.sub shares 1 k) in
       Sc.equal secret (Shamir_scalar.reconstruct ~threshold:k subset))

let () =
  Alcotest.run "vss"
    [ ("gf256",
       [ Alcotest.test_case "field axioms (exhaustive)" `Quick test_gf256_field_axioms;
         Alcotest.test_case "AES-field products" `Quick test_gf256_mul_matches_aes;
         Alcotest.test_case "inv zero" `Quick test_gf256_inv_zero;
         Alcotest.test_case "poly eval" `Quick test_gf256_poly_eval ]);
      ("shamir-bytes",
       [ Alcotest.test_case "roundtrip any quorum" `Quick test_shamir_bytes_roundtrip;
         Alcotest.test_case "below threshold" `Quick test_shamir_bytes_below_threshold_differs;
         Alcotest.test_case "input validation" `Quick test_shamir_bytes_validation;
         QCheck_alcotest.to_alcotest prop_shamir_bytes ]);
      ("shamir-scalar",
       [ Alcotest.test_case "roundtrip" `Quick test_shamir_scalar_roundtrip;
         Alcotest.test_case "additive homomorphism" `Quick test_shamir_scalar_homomorphic;
         Alcotest.test_case "mismatched x" `Quick test_shamir_scalar_mismatched_x;
         QCheck_alcotest.to_alcotest prop_scalar_shamir ]);
      ("elgamal-vss",
       [ Alcotest.test_case "end to end" `Quick test_elgamal_vss_end_to_end;
         Alcotest.test_case "tamper detection" `Quick test_elgamal_vss_tamper;
         Alcotest.test_case "homomorphic tally" `Quick test_elgamal_vss_homomorphic_tally ]) ]
