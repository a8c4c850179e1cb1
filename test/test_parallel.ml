(* Determinism contract of the domain-pool executor (lib/parallel).
   The whole point of the pool is that parallel results are BIT-IDENTICAL
   to serial ones — these tests pin that for the primitives (map/for/
   reduce under random pool and chunk sizes), for exception propagation
   (smallest chunk index wins, original payload survives), for the
   domain-shared crypto stack (Sha256 under concurrent domains), and
   for the real workload: the segments write_setup seals at 1 vs 4
   domains. *)

module Pool = Dd_parallel.Pool
module Once = Dd_parallel.Once
module Types = Ddemos.Types

(* Pools are cheap to create but not free; share one per size. *)
let pools = Hashtbl.create 4

let pool_of ~domains =
  match Hashtbl.find_opt pools domains with
  | Some p -> p
  | None ->
    let p = Pool.create ~domains () in
    Hashtbl.add pools domains p;
    p

(* --- qcheck: primitives agree with their serial meaning --------------- *)

let test_map_matches_list_map =
  QCheck.Test.make ~name:"parallel_map = List.map for any pool/chunk" ~count:100
    QCheck.(triple (list int) (int_range 1 4) (int_range 1 7))
    (fun (xs, domains, chunk) ->
       let pool = pool_of ~domains in
       let f x = (x * 2654435761) lxor (x lsr 3) in
       let arr = Array.of_list xs in
       Pool.parallel_map pool ~chunk f arr = Array.of_list (List.map f xs))

let test_for_positional =
  QCheck.Test.make ~name:"parallel_for writes every slot exactly once" ~count:100
    QCheck.(triple (int_range 0 200) (int_range 1 4) (int_range 1 7))
    (fun (n, domains, chunk) ->
       let pool = pool_of ~domains in
       let hits = Array.make n 0 in
       Pool.parallel_for pool ~chunk n (fun i -> hits.(i) <- hits.(i) + 1);
       Array.for_all (( = ) 1) hits)

(* --- exception propagation -------------------------------------------- *)

exception Boom of int

let test_exception_payload =
  (* whichever subset of indices raises, the caller sees the exception
     the serial loop would have seen first: the one from the smallest
     chunk index, original payload intact *)
  QCheck.Test.make ~name:"smallest-index exception, payload intact" ~count:100
    QCheck.(triple (int_range 1 4) (int_range 1 5)
              (list_of_size (Gen.int_range 1 6) (int_range 0 99)))
    (fun (domains, chunk, bad) ->
       let pool = pool_of ~domains in
       let n = 100 in
       let expected_chunk = List.fold_left min max_int (List.map (fun i -> i / chunk) bad) in
       match
         Pool.parallel_for pool ~chunk n (fun i ->
             if List.mem i bad then raise (Boom i))
       with
       | () -> false
       | exception Boom i ->
         (* the winning exception comes from the smallest raising chunk
            (within a chunk the body runs in index order, so it is the
            smallest bad index of that chunk) *)
         i / chunk = expected_chunk
         && i = List.fold_left min max_int (List.filter (fun j -> j / chunk = expected_chunk) bad))

let test_pool_survives_exception () =
  let pool = pool_of ~domains:4 in
  (try Pool.parallel_for pool 50 (fun i -> if i = 7 then raise (Boom 7))
   with Boom 7 -> ());
  (* the pool is still usable afterwards *)
  let r = Pool.parallel_map pool (fun x -> x + 1) (Array.init 50 (fun i -> i)) in
  Alcotest.(check bool) "pool alive after exception" true
    (r = Array.init 50 (fun i -> i + 1))

(* --- domain-shared crypto stack ---------------------------------------- *)

let test_sha256_concurrent () =
  (* Sha256's message-schedule scratch is Domain.DLS; hammering digests
     from 4 domains at once must agree with the serial digests *)
  let pool = pool_of ~domains:4 in
  let inputs = Array.init 256 (fun i -> String.concat "|" [ "msg"; string_of_int i ]) in
  let serial = Array.map Dd_crypto.Sha256.digest inputs in
  for _ = 1 to 4 do
    let par = Pool.parallel_map pool ~chunk:1 Dd_crypto.Sha256.digest inputs in
    Alcotest.(check bool) "digests identical" true (par = serial)
  done

let test_once_single_value () =
  (* many domains racing a Once cell all observe the same published
     value even if the compute ran more than once *)
  let pool = pool_of ~domains:4 in
  let computed = Atomic.make 0 in
  let cell = Once.make (fun () -> ignore (Atomic.fetch_and_add computed 1); ref 42) in
  let seen = Pool.parallel_map pool ~chunk:1 (fun _ -> Once.force cell) (Array.make 64 ()) in
  Alcotest.(check bool) "one value published" true
    (Array.for_all (( == ) seen.(0)) seen);
  Alcotest.(check int) "value correct" 42 !(seen.(0))

let test_curve_concurrent () =
  (* the first MSM of the process: four domains race the Once that
     publishes the generator's wide table, each also signing and
     verifying and committing (the first uses of G's and H's comb
     tables, also Once cells), and every result must equal the serial
     one computed afterwards *)
  let module Curve = Dd_group.Curve in
  let module Schnorr = Dd_sig.Schnorr in
  let pool = pool_of ~domains:4 in
  let work i =
    let scalar j = Curve.hash_to_scalar [ "curve concurrent"; string_of_int i; string_of_int j ] in
    let commitment = Dd_commit.Elgamal.commit ~msg:(scalar 8) ~rand:(scalar 9) in
    let terms =
      Array.init 8 (fun j ->
          (scalar j,
           if j mod 2 = 0 then Curve.generator
           else Curve.hash_to_point (Printf.sprintf "curve concurrent %d %d" i j)))
    in
    let rng = Dd_crypto.Drbg.create ~seed:("curve concurrent|" ^ string_of_int i) in
    let sk, pk = Schnorr.keygen rng in
    let signature = Schnorr.sign rng ~sk ~pk "curve concurrent" in
    (Curve.encode (Curve.msm terms), Schnorr.encode signature,
     Schnorr.verify ~pk "curve concurrent" signature, Dd_commit.Elgamal.encode commitment)
  in
  let tasks = Array.init 4 (fun i -> i) in
  let par = Pool.parallel_map pool ~chunk:1 work tasks in
  let serial = Array.map work tasks in
  Alcotest.(check bool) "results identical" true (par = serial);
  Alcotest.(check bool) "signatures verify" true (Array.for_all (fun (_, _, ok, _) -> ok) par)

let test_msm_arena_concurrent () =
  (* every domain has its own msm arena: calls of mixed sizes, on both
     sides of the 256-term line and with forced windows, run on four
     domains at once and must return the serial results *)
  let module Curve = Dd_group.Curve in
  let pool = pool_of ~domains:4 in
  let points = Array.init 300 (fun i -> Curve.hash_to_point (Printf.sprintf "msm arena %d" i)) in
  let call (n, window) =
    let scalar i =
      let k = Curve.hash_to_scalar [ "msm arena"; string_of_int n; string_of_int i ] in
      (* every other term a 128-bit batch weight *)
      if i mod 2 = 0 then Dd_bignum.Sc.of_bytes_mod (String.sub (Dd_bignum.Sc.to_bytes k) 0 16)
      else k
    in
    Curve.encode (Curve.msm ?window (Array.init n (fun i -> (scalar i, points.(i)))))
  in
  let calls =
    Array.of_list
      (List.concat_map
         (fun n -> [ (n, None); (n mod 40 + 1, Some (1 + (n mod 8))) ])
         [ 300; 2; 64; 257; 7; 200; 256; 31 ])
  in
  let serial = Array.map call calls in
  for _ = 1 to 2 do
    let par = Pool.parallel_map pool ~chunk:1 call calls in
    Alcotest.(check bool) "results identical" true (par = serial)
  done

(* --- the real workload: parallel write_setup --------------------------- *)

(* The election write_setup seals at this pool size: its static part and
   each segment's durable bytes, by segment name. *)
let sealed_at ~domains cfg =
  let module Device = Dd_store.Device in
  let backings = Hashtbl.create 16 in
  let devices =
    Device.by_name (fun name ->
        let b = Device.Mem.create () in
        Hashtbl.add backings name b;
        Device.Mem.device b)
  in
  let layout =
    Ddemos.Election_store.write_setup ~pool:(pool_of ~domains) devices cfg ~seed:"par-seed"
  in
  (layout.Ddemos.Election_store.l_static,
   fun name -> Device.Mem.durable_log (Hashtbl.find backings name))

let test_write_setup_deterministic () =
  let module Ea = Ddemos.Ea in
  let module Election_store = Ddemos.Election_store in
  let cfg =
    { Types.default_config with
      Types.n_voters = 12; Types.m_options = 3; Types.election_id = "par-setup" }
  in
  let st1, seg1 = sealed_at ~domains:1 cfg in
  let st4, seg4 = sealed_at ~domains:4 cfg in
  let same names = List.for_all (fun name -> String.equal (seg1 name) (seg4 name)) names in
  (* every distributed artifact — voter ballots, BB commitments and
     encrypted codes, VC lines and shares, trustee shares and tags —
     must be sealed byte for byte the same whatever the pool size *)
  Alcotest.(check bool) "ballots identical" true (same [ Election_store.ballots_segment ]);
  Alcotest.(check bool) "bb_init identical" true
    (st1.Ea.st_hmsk = st4.Ea.st_hmsk && st1.Ea.st_salt_msk = st4.Ea.st_salt_msk);
  Alcotest.(check bool) "bb_ballots identical" true (same [ Election_store.bb_segment ]);
  Alcotest.(check bool) "vc_init identical" true
    (st1.Ea.st_msk_shares = st4.Ea.st_msk_shares
     && same (List.init cfg.Types.nv Election_store.vc_segment));
  Alcotest.(check bool) "trustee_init identical" true
    (same (List.init cfg.Types.nt Election_store.trustee_segment))

let test_env_domains () =
  (* the env knob parses defensively; we cannot set the environment of
     this process portably mid-run, so just pin the live value's range *)
  let d = Pool.size (Pool.get_default ()) in
  Alcotest.(check bool) "env_domains in [1,64]" true (d >= 1 && d <= 64)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [ ("primitives",
       qt [ test_map_matches_list_map; test_for_positional ]);
      ("exceptions",
       qt [ test_exception_payload ]
       @ [ Alcotest.test_case "pool survives exception" `Quick test_pool_survives_exception ]);
      ("crypto-stack",
       [ Alcotest.test_case "sha256 concurrent" `Quick test_sha256_concurrent;
         Alcotest.test_case "once publishes one value" `Quick test_once_single_value;
         Alcotest.test_case "curve concurrent" `Quick test_curve_concurrent;
         Alcotest.test_case "msm arena concurrent" `Quick test_msm_arena_concurrent ]);
      ("workload",
       [ Alcotest.test_case "write_setup pool-size invariant" `Quick
           test_write_setup_deterministic;
         Alcotest.test_case "env_domains range" `Quick test_env_domains ]) ]
