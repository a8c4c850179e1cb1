(* Elliptic-curve group tests: secp256k1 known answers, group laws as
   properties, point codec, hash-to-point/scalar. *)

module Nat = Dd_bignum.Nat
module Curve = Dd_group.Curve
module Group_ctx = Dd_group.Group_ctx

let gctx = Group_ctx.default ()
let c = Group_ctx.curve gctx
let g = Group_ctx.g gctx

let point = Alcotest.testable (fun fmt _ -> Format.fprintf fmt "<point>") (Curve.equal c)

let arb_scalar =
  QCheck.make
    ~print:Nat.to_hex
    QCheck.Gen.(
      map
        (fun bytes -> Nat.of_bytes_be (String.init 32 (fun i -> Char.chr (List.nth bytes i))))
        (list_repeat 32 (int_range 0 255)))

(* --- known answers ------------------------------------------------------ *)

let test_generator_on_curve () =
  match Curve.to_affine c g with
  | None -> Alcotest.fail "generator is infinity?"
  | Some xy -> Alcotest.(check bool) "on curve" true (Curve.on_curve c xy)

let test_2g_known () =
  match Curve.to_affine c (Curve.double c g) with
  | None -> Alcotest.fail "2G infinity"
  | Some (x, y) ->
    Alcotest.(check string) "2G.x"
      "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5" (Nat.to_hex x);
    Alcotest.(check string) "2G.y"
      "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a" (Nat.to_hex y)

let test_5g_known () =
  match Curve.to_affine c (Curve.mul_int c 5 g) with
  | None -> Alcotest.fail "5G infinity"
  | Some (x, _) ->
    Alcotest.(check string) "5G.x"
      "2f8bde4d1a07209355b4a7250a5c5128e88b84bddc619ab7cba8d569b240efe4" (Nat.to_hex x)

let test_order_annihilates () =
  Alcotest.check point "nG = O" Curve.infinity (Curve.mul c (Curve.order c) g);
  Alcotest.check point "(n+1)G = G" g (Curve.mul c (Nat.add (Curve.order c) Nat.one) g)

let test_identity_laws () =
  Alcotest.check point "O + G = G" g (Curve.add c Curve.infinity g);
  Alcotest.check point "G + O = G" g (Curve.add c g Curve.infinity);
  Alcotest.check point "G - G = O" Curve.infinity (Curve.sub c g g);
  Alcotest.check point "0 * G = O" Curve.infinity (Curve.mul c Nat.zero g)

let test_codec () =
  let p = Curve.mul_int c 123456789 g in
  (match Curve.decode c (Curve.encode c p) with
   | Some p' -> Alcotest.check point "roundtrip" p p'
   | None -> Alcotest.fail "decode failed");
  (match Curve.decode c (Curve.encode c Curve.infinity) with
   | Some p' -> Alcotest.check point "infinity roundtrip" Curve.infinity p'
   | None -> Alcotest.fail "infinity decode failed");
  Alcotest.(check bool) "garbage rejected" true (Curve.decode c "garbage" = None);
  (* off-curve point rejected: valid-length encoding of (1, 1) *)
  let fake = "\x04" ^ Nat.to_bytes_be ~len:32 Nat.one ^ Nat.to_bytes_be ~len:32 Nat.one in
  Alcotest.(check bool) "off-curve rejected" true (Curve.decode c fake = None)

let test_hash_to_point () =
  let h = Group_ctx.h gctx in
  (match Curve.to_affine c h with
   | None -> Alcotest.fail "H is infinity"
   | Some xy -> Alcotest.(check bool) "H on curve" true (Curve.on_curve c xy));
  Alcotest.(check bool) "H <> G" false (Curve.equal c h g);
  (* determinism *)
  let h2 = Curve.hash_to_point c "d-demos second generator H" in
  Alcotest.check point "hash_to_point deterministic" h h2

let test_hash_to_scalar () =
  let s1 = Curve.hash_to_scalar c [ "a"; "b" ] in
  let s2 = Curve.hash_to_scalar c [ "a"; "b" ] in
  let s3 = Curve.hash_to_scalar c [ "ab" ] in
  Alcotest.(check bool) "deterministic" true (Nat.equal s1 s2);
  Alcotest.(check bool) "part boundaries matter" false (Nat.equal s1 s3);
  Alcotest.(check bool) "reduced" true (Nat.compare s1 (Curve.order c) < 0)

let test_group_ctx_mul_fast_path () =
  let k = Nat.of_hex "123456789abcdef123456789abcdef" in
  Alcotest.check point "mul g" (Curve.mul c k g) (Group_ctx.mul gctx k g);
  Alcotest.check point "mul h" (Curve.mul c k (Group_ctx.h gctx))
    (Group_ctx.mul gctx k (Group_ctx.h gctx));
  let other = Curve.double c g in
  Alcotest.check point "mul other" (Curve.mul c k other) (Group_ctx.mul gctx k other)

let test_compressed_codec () =
  List.iter
    (fun k ->
       let p = Curve.mul_int c k g in
       let enc = Curve.encode_compressed c p in
       Alcotest.(check int) "33 bytes" 33 (String.length enc);
       match Curve.decode_compressed c enc with
       | Some p' -> Alcotest.check point (Printf.sprintf "%dG roundtrip" k) p p'
       | None -> Alcotest.fail "compressed decode failed")
    [ 1; 2; 3; 7; 123456789 ];
  (match Curve.decode_compressed c (Curve.encode_compressed c Curve.infinity) with
   | Some p -> Alcotest.check point "infinity" Curve.infinity p
   | None -> Alcotest.fail "infinity compressed decode failed");
  Alcotest.(check bool) "garbage rejected" true (Curve.decode_compressed c "junk" = None);
  (* an x with no point on the curve must be rejected *)
  let rec non_residue_x i =
    let candidate = "\x02" ^ Nat.to_bytes_be ~len:32 (Nat.of_int i) in
    if Curve.decode_compressed c candidate = None then i else non_residue_x (i + 1)
  in
  Alcotest.(check bool) "some x has no curve point" true (non_residue_x 2 > 0)

let test_field_sqrt () =
  let fp = Dd_bignum.Modular.create Curve.secp256k1.Curve.p in
  let x = Dd_bignum.Nat.of_int 1234567 in
  let sq = Dd_bignum.Modular.sqr fp x in
  (match Curve.field_sqrt c sq with
   | Some r ->
     Alcotest.(check bool) "sqrt of square" true
       (Dd_bignum.Nat.equal (Dd_bignum.Modular.sqr fp r) sq)
   | None -> Alcotest.fail "square has no root?");
  (* find a non-residue: for p = 3 mod 4, -1 is one *)
  let minus_one = Dd_bignum.Modular.neg fp Dd_bignum.Nat.one in
  Alcotest.(check bool) "-1 is a non-residue" true (Curve.field_sqrt c minus_one = None)

(* --- NIST P-256 (general-a arithmetic) ------------------------------------ *)

let p256 = Curve.create Curve.nist_p256

let test_p256_generator () =
  let g256 = Curve.generator p256 in
  (match Curve.to_affine p256 g256 with
   | Some xy -> Alcotest.(check bool) "G on curve" true (Curve.on_curve p256 xy)
   | None -> Alcotest.fail "generator infinity");
  Alcotest.(check bool) "order annihilates" true
    (Curve.is_infinity (Curve.mul p256 (Curve.order p256) g256))

let test_p256_2g_known () =
  (* NIST k=2 test vector *)
  match Curve.to_affine p256 (Curve.double p256 (Curve.generator p256)) with
  | Some (x, y) ->
    Alcotest.(check string) "2G.x"
      "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978" (Nat.to_hex x);
    Alcotest.(check string) "2G.y"
      "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1" (Nat.to_hex y)
  | None -> Alcotest.fail "2G infinity"

let test_p256_group_ctx () =
  (* a full Group_ctx over P-256: H derivation and fixed-base tables *)
  let gctx256 = Group_ctx.create ~params:Curve.nist_p256 () in
  let k = Nat.of_hex "1234567890abcdef1234567890abcdef" in
  Alcotest.(check bool) "table matches plain" true
    (Curve.equal (Group_ctx.curve gctx256)
       (Group_ctx.mul_g gctx256 k)
       (Curve.mul (Group_ctx.curve gctx256) k (Group_ctx.g gctx256)));
  (* commitments work over P-256 too *)
  let rng = Dd_crypto.Drbg.create ~seed:"p256" in
  let cmt, opening = Dd_commit.Elgamal.commit_random gctx256 rng ~msg:Nat.one in
  Alcotest.(check bool) "elgamal over p256" true
    (Dd_commit.Elgamal.verify gctx256 cmt opening)

(* --- group-law properties ----------------------------------------------- *)

let prop_add_comm =
  QCheck.Test.make ~name:"P+Q = Q+P" ~count:30 (QCheck.pair arb_scalar arb_scalar)
    (fun (a, b) ->
       let p = Curve.mul c a g and q = Curve.mul c b g in
       Curve.equal c (Curve.add c p q) (Curve.add c q p))

let prop_add_assoc =
  QCheck.Test.make ~name:"(P+Q)+R = P+(Q+R)" ~count:20
    (QCheck.triple arb_scalar arb_scalar arb_scalar)
    (fun (a, b, d) ->
       let p = Curve.mul c a g and q = Curve.mul c b g and r = Curve.mul c d g in
       Curve.equal c (Curve.add c (Curve.add c p q) r) (Curve.add c p (Curve.add c q r)))

let prop_scalar_distributes =
  QCheck.Test.make ~name:"(a+b)G = aG + bG" ~count:30 (QCheck.pair arb_scalar arb_scalar)
    (fun (a, b) ->
       Curve.equal c
         (Curve.mul c (Nat.add a b) g)
         (Curve.add c (Curve.mul c a g) (Curve.mul c b g)))

let prop_double_is_add =
  QCheck.Test.make ~name:"2P = P+P" ~count:30 arb_scalar
    (fun a ->
       let p = Curve.mul c a g in
       Curve.equal c (Curve.double c p) (Curve.add c p p))

let prop_neg_inverse =
  QCheck.Test.make ~name:"P + (-P) = O" ~count:30 arb_scalar
    (fun a ->
       let p = Curve.mul c a g in
       Curve.is_infinity (Curve.add c p (Curve.neg c p)))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"decode . encode = id" ~count:30 arb_scalar
    (fun a ->
       let p = Curve.mul c a g in
       match Curve.decode c (Curve.encode c p) with
       | Some p' -> Curve.equal c p p'
       | None -> false)

let prop_table_matches_plain =
  QCheck.Test.make ~name:"table mul = plain mul" ~count:30 arb_scalar
    (fun a -> Curve.equal c (Group_ctx.mul_g gctx a) (Curve.mul c a g))

(* --- differential: fast scalar-multiplication paths ---------------------- *)

(* The reference: a textbook affine group law (chord and tangent, None
   the identity) over the Barrett field of [Modular.create], sharing no
   code with Fe or the Jacobian formulas. Extended-Euclid inversion
   keeps a reference multiplication cheap. *)
module Ref = struct
  module M = Dd_bignum.Modular

  let fields =
    List.map
      (fun (pr : Curve.params) -> (pr.Curve.name, M.create pr.Curve.p))
      [ Curve.secp256k1; Curve.nist_p256 ]

  let fp (pr : Curve.params) = List.assoc pr.Curve.name fields

  let add pr p q =
    let fp = fp pr in
    match p, q with
    | None, r | r, None -> r
    | Some (x1, y1), Some (x2, y2) ->
      if Nat.equal x1 x2 && Nat.is_zero (M.add fp y1 y2) then None
      else begin
        let l =
          if Nat.equal x1 x2 then
            M.mul fp (M.add fp (M.mul fp (M.of_int fp 3) (M.sqr fp x1)) pr.Curve.a)
              (M.inv_vartime fp (M.add fp y1 y1))
          else M.mul fp (M.sub fp y2 y1) (M.inv_vartime fp (M.sub fp x2 x1))
        in
        let x3 = M.sub fp (M.sub fp (M.sqr fp l) x1) x2 in
        Some (x3, M.sub fp (M.mul fp l (M.sub fp x1 x3)) y1)
      end

  (* double-and-add, the scalar reduced mod the order *)
  let mul pr k p =
    let k = Nat.rem k pr.Curve.order in
    let acc = ref None in
    for i = Nat.bit_length k - 1 downto 0 do
      acc := add pr !acc !acc;
      if Nat.testbit k i then acc := add pr !acc p
    done;
    !acc

  let gen (pr : Curve.params) = Some (pr.Curve.gx, pr.Curve.gy)
end

(* Curve points in and out of the reference (the affine edge). *)
let of_ref cv = function None -> Curve.infinity | Some xy -> Curve.of_affine cv xy
let agrees cv want got =
  match want, Curve.to_affine cv got with
  | None, None -> true
  | Some (x, y), Some (x', y') -> Nat.equal x x' && Nat.equal y y'
  | _ -> false

(* Both curves: the uniform fixed-window path covers a <> 0 arithmetic
   on P-256, the wNAF path covers negated-point table entries. *)
let curves = [ ("secp256k1", c, g); ("p256", p256, Curve.generator p256) ]
let params_of cv = if cv == c then Curve.secp256k1 else Curve.nist_p256

(* The reference k * P of a curve point, as a curve point. *)
let naive_mul cv k pt = of_ref cv (Ref.mul (params_of cv) k (Curve.to_affine cv pt))

(* P + P, P + (-P), O + P and P + O against the reference, through the
   general add (a Jacobian q) and the mixed add (an affine q). *)
let prop_add_cases_match_ref =
  QCheck.Test.make ~name:"add special cases = reference on both curves" ~count:10 arb_scalar
    (fun a ->
       List.for_all
         (fun (_, cv, gv) ->
            let pr = params_of cv in
            let rp = Ref.mul pr a (Ref.gen pr) in
            let twice = Ref.add pr rp rp in
            let pj = Curve.mul cv a gv and pa = of_ref cv rp and o = Curve.infinity in
            List.for_all
              (fun (p, q, want) -> agrees cv want (Curve.add cv p q))
              [ (pj, pj, twice); (pj, Curve.neg cv pj, None); (o, pj, rp); (pj, o, rp);
                (pj, pa, twice); (pa, pa, twice); (pj, Curve.neg cv pa, None); (o, pa, rp);
                (pa, o, rp) ])
         curves)

(* Comb tables over each curve's generator: width 8 (the Group_ctx
   generator format) and width 4 (the per-signer verification format). *)
let tables = List.map (fun (_, cv, gv) -> Curve.make_base_table cv ~width:8 gv) curves
let narrow_tables = List.map (fun (_, cv, gv) -> Curve.make_base_table cv ~width:4 gv) curves

(* A table's layout on both curves: ceil(bits/w) rows of 2^(w-1)
   entries, every entry affine and equal to (2j+1) * 2^(w*i) * B, with
   the reference rows walked by general adds. A table over the identity
   has no rows. *)
let check_table_layout ~width tables =
  List.iter2
    (fun (name, cv, gv) table ->
       let rows = Curve.base_table_rows table in
       Alcotest.(check int) (name ^ " rows")
         ((Nat.bit_length (Curve.order cv) + width - 1) / width) (Array.length rows);
       let base = ref gv in
       Array.iteri
         (fun i row ->
            Alcotest.(check int) "entries" (1 lsl (width - 1)) (Array.length row);
            let twice = Curve.double cv !base in
            let want = ref !base in
            Array.iteri
              (fun j e ->
                 if not (Curve.is_affine e && Curve.equal cv !want e) then
                   Alcotest.failf "%s: entry (%d, %d) is not affine (2j+1)*2^(%d*i)*B"
                     name i j width;
                 want := Curve.add cv !want twice)
              row;
            for _ = 1 to width do base := Curve.double cv !base done)
         rows)
    curves tables;
  let rows = Curve.base_table_rows (Curve.make_base_table c ~width Curve.infinity) in
  Alcotest.(check int) "identity table has no rows" 0 (Array.length rows)

let test_base_table_matches () = check_table_layout ~width:4 narrow_tables
let test_wide_table_matches () = check_table_layout ~width:8 tables

(* The scalar whose recoded digits come from d (curve.ml: the signed
   digits of k are 2 b_i - (2^w - 1) for the base-2^w digits b_i of d =
   (k + 2^(wW) - 1) / 2 mod n): k = 2d - (2^(wW) - 1) mod n. *)
let scalar_of_recoded cv ~width d =
  let fn = Curve.scalar_field cv in
  let bits = Nat.bit_length (Curve.order cv) in
  let ww = width * ((bits + width - 1) / width) in
  Dd_bignum.Modular.sub fn (Dd_bignum.Modular.add fn d d)
    (Dd_bignum.Modular.reduce fn (Nat.sub (Nat.shift_left Nat.one ww) Nat.one))

(* Scalars at the table's edges, for a width-w table: 0, 1, 2, n-1,
   n-2; a top recoded digit of +max and -max (d = n-1 and d = 0); the
   two scalars whose last comb add meets the equal-point case,
   +-2 (2^w - 1) 2^(w(W-1)) mod n; and a maximal digit in every row. *)
let edge_scalars cv ~width =
  let order = Curve.order cv in
  let fn = Curve.scalar_field cv in
  let rows = (Nat.bit_length order + width - 1) / width in
  let top = 2 * ((1 lsl width) - 1) in
  let equal_case =
    Dd_bignum.Modular.reduce fn
      (Nat.mul (Nat.of_int top) (Nat.shift_left Nat.one (width * (rows - 1))))
  in
  [ Nat.zero; Nat.one; Nat.two; Nat.sub order Nat.one; Nat.sub order Nat.two;
    scalar_of_recoded cv ~width (Nat.sub order Nat.one);
    scalar_of_recoded cv ~width Nat.zero;
    equal_case; Dd_bignum.Modular.neg fn equal_case ]
  @ List.init rows (fun i ->
      Nat.mul (Nat.of_int ((1 lsl width) - 1)) (Nat.shift_left Nat.one (width * i)))

(* mul_base_table against the fixed-window [mul] on both curves. *)
let table_matches_mul k =
  List.for_all2
    (fun (_, cv, gv) table -> Curve.equal cv (Curve.mul cv k gv) (Curve.mul_base_table cv table k))
    curves tables

let test_base_table_edge_scalars () =
  List.iter
    (fun width ->
       List.iter2
         (fun (name, cv, gv) table ->
            List.iter
              (fun k ->
                 Alcotest.(check bool)
                   (Printf.sprintf "%s w%d k = %s" name width (Nat.to_hex k)) true
                   (Curve.equal cv (Curve.mul cv k gv) (Curve.mul_base_table cv table k)))
              (edge_scalars cv ~width))
         curves
         (if width = 8 then tables else narrow_tables))
    [ 4; 8 ]

let prop_base_table_matches_mul =
  QCheck.Test.make ~name:"mul_base_table = mul on both curves" ~count:20 arb_scalar
    table_matches_mul

(* --- lockstep batch ------------------------------------------------------- *)

let h_of cv = Curve.hash_to_point cv "d-demos second generator H"
let h_tables = List.map (fun (_, cv, _) -> Curve.make_base_table cv ~width:8 (h_of cv)) curves

(* The reference sum of a job, by the fixed-window [mul]. *)
let job_by_mul cv bases job =
  List.fold_left (fun acc (b, k) -> Curve.add cv acc (Curve.mul cv k b)) Curve.infinity
    (List.map2 (fun b (_, k) -> (b, k)) bases job)

let batch_matches cv jobs bases =
  let got = Curve.mul_base_batch cv (Array.of_list jobs) in
  Array.length got = List.length jobs
  && List.for_all2
    (fun (job, bs) p ->
       (Curve.is_infinity p || Curve.is_affine p) && Curve.equal cv (job_by_mul cv bs job) p)
    (List.combine jobs bases) (Array.to_list got)

(* Every edge scalar alone on G (both widths), and as the randomness of
   m*G + r*H with m in {0, 1} (and as m with a random r), on both
   curves. *)
let test_batch_edge_scalars () =
  List.iteri
    (fun ci (name, cv, gv) ->
       let gt = List.nth tables ci and g4 = List.nth narrow_tables ci in
       let ht = List.nth h_tables ci and hv = h_of cv in
       let r = Nat.of_hex "3b9ac9ff5a5a5a5a0123456789abcdef0fedcba9876543210aa55aa55aa55aa5" in
       let wide = edge_scalars cv ~width:8 in
       let edges = wide @ edge_scalars cv ~width:4 in
       let single = List.map (fun k -> ([ (gt, k) ], [ gv ])) edges in
       let narrow = List.map (fun k -> ([ (g4, k) ], [ gv ])) edges in
       let two =
         List.concat_map
           (fun k ->
              [ ([ (gt, Nat.zero); (ht, k) ], [ gv; hv ]);
                ([ (gt, Nat.one); (ht, k) ], [ gv; hv ]);
                ([ (gt, k); (ht, r) ], [ gv; hv ]);
                (* the same base twice: the merge meets P + P and P + (-P) *)
                ([ (gt, k); (gt, k) ], [ gv; gv ]);
                ([ (gt, k); (gt, Dd_bignum.Modular.neg (Curve.scalar_field cv) k) ], [ gv; gv ]) ])
           wide
       in
       let cases = single @ narrow @ two @ [ ([], []) ] in
       Alcotest.(check bool) (name ^ " edge-scalar batch") true
         (batch_matches cv (List.map fst cases) (List.map snd cases)))
    curves

(* Batch sizes 0 and 1, and one group's size plus and minus one (the
   last against mul_base_table, itself pinned to [mul] above). *)
let test_batch_sizes () =
  let gt = List.hd tables and ht = List.hd h_tables in
  Alcotest.(check int) "empty batch" 0 (Array.length (Curve.mul_base_batch c [||]));
  Alcotest.(check bool) "one job" true
    (batch_matches c [ [ (gt, Nat.of_int 12345) ] ] [ [ g ] ]);
  let rng = Dd_crypto.Drbg.create ~seed:"comb-batch sizes" in
  List.iter
    (fun n ->
       let jobs =
         Array.init n (fun i ->
             let k = Group_ctx.random_scalar gctx rng in
             if i mod 3 = 0 then [ (gt, Nat.of_int (i land 1)); (ht, k) ] else [ (gt, k) ])
       in
       let got = Curve.mul_base_batch c jobs in
       Array.iteri
         (fun i job ->
            let want =
              List.fold_left (fun acc (tb, k) -> Curve.add c acc (Curve.mul_base_table c tb k))
                Curve.infinity job
            in
            if not (Curve.is_affine got.(i) && Curve.equal c want got.(i)) then
              Alcotest.failf "batch of %d: job %d differs" n i)
         jobs)
    [ Curve.batch_group - 1; Curve.batch_group + 1 ]

let prop_batch_matches_mul =
  QCheck.Test.make ~name:"mul_base_batch = mul on both curves" ~count:10
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) (QCheck.triple QCheck.bool arb_scalar arb_scalar))
    (fun specs ->
       List.for_all
         (fun (ci, (_, cv, gv)) ->
            let gt = List.nth tables ci and ht = List.nth h_tables ci in
            let hv = h_of cv in
            let cases =
              List.map
                (fun (two, a, b) ->
                   if two then ([ (gt, a); (ht, b) ], [ gv; hv ]) else ([ (ht, a) ], [ hv ]))
                specs
            in
            batch_matches cv (List.map fst cases) (List.map snd cases))
         (List.mapi (fun i cv -> (i, cv)) curves))

let prop_mul_matches_naive =
  QCheck.Test.make ~name:"mul and mul_vartime = naive double-and-add" ~count:25
    (QCheck.pair arb_scalar arb_scalar)
    (fun (a, k) ->
       List.for_all
         (fun (_, cv, gv) ->
            let pt = naive_mul cv a gv in
            let want = naive_mul cv k pt in
            Curve.equal cv want (Curve.mul cv k pt)
            && Curve.equal cv want (Curve.mul_vartime cv k pt))
         curves)

let prop_mul2_matches_parts =
  QCheck.Test.make ~name:"mul2 table u v P = uG + vP" ~count:25
    (QCheck.triple arb_scalar arb_scalar arb_scalar)
    (fun (u, v, a) ->
       List.for_all2
         (fun (_, cv, gv) table ->
            let p = Curve.mul cv a gv in
            Curve.equal cv
              (Curve.mul2 cv table u v p)
              (Curve.add cv (Curve.mul cv u gv) (Curve.mul cv v p)))
         curves tables)

let prop_to_affine_batch_matches =
  QCheck.Test.make ~name:"to_affine_batch = pointwise to_affine" ~count:20
    (QCheck.list_of_size (QCheck.Gen.int_range 0 9) arb_scalar)
    (fun ks ->
       (* interleave finite points with infinities *)
       let pts =
         Array.of_list
           (List.concat_map (fun k -> [ Curve.mul c k g; Curve.infinity ]) ks)
       in
       let batch = Curve.to_affine_batch c pts in
       Array.for_all2
         (fun got pt ->
            match got, Curve.to_affine c pt with
            | None, None -> true
            | Some (x, y), Some (x', y') -> Nat.equal x x' && Nat.equal y y'
            | _ -> false)
         batch pts)

let test_mul_edge_cases () =
  List.iter
    (fun (name, cv, gv) ->
       let order = Curve.order cv in
       let chk label want got =
         Alcotest.(check bool) (Printf.sprintf "%s %s" name label) true
           (Curve.equal cv want got)
       in
       chk "vartime 0*G = O" Curve.infinity (Curve.mul_vartime cv Nat.zero gv);
       chk "vartime k*O = O" Curve.infinity
         (Curve.mul_vartime cv (Nat.of_int 7) Curve.infinity);
       chk "vartime n*G = O" Curve.infinity (Curve.mul_vartime cv order gv);
       chk "vartime (n-1)*G = -G" (Curve.neg cv gv)
         (Curve.mul_vartime cv (Nat.sub order Nat.one) gv);
       chk "vartime (n+1)*G = G" gv
         (Curve.mul_vartime cv (Nat.add order Nat.one) gv);
       chk "fixed-window n*G = O" Curve.infinity (Curve.mul cv order gv);
       chk "fixed-window (n-1)*G = -G" (Curve.neg cv gv)
         (Curve.mul cv (Nat.sub order Nat.one) gv);
       (* P + (-P) through the vartime adds *)
       chk "P + (-P) = O" Curve.infinity
         (Curve.add cv (Curve.mul_vartime cv Nat.two gv)
            (Curve.neg cv (Curve.mul_vartime cv Nat.two gv))))
    curves;
  (* mul2 degenerate inputs *)
  let table = Group_ctx.g_table gctx in
  let chk label want got =
    Alcotest.(check bool) label true (Curve.equal c want got)
  in
  chk "mul2 0 0 P = O" Curve.infinity (Curve.mul2 c table Nat.zero Nat.zero g);
  chk "mul2 u 0 P = uG" (Curve.mul c (Nat.of_int 9) g)
    (Curve.mul2 c table (Nat.of_int 9) Nat.zero g);
  chk "mul2 0 v P = vP" (Curve.mul c (Nat.of_int 11) g)
    (Curve.mul2 c table Nat.zero (Nat.of_int 11) g);
  chk "mul2 with P = O" (Curve.mul c (Nat.of_int 5) g)
    (Curve.mul2 c table (Nat.of_int 5) (Nat.of_int 13) Curve.infinity);
  chk "mul2 order scalars = O" Curve.infinity
    (Curve.mul2 c table (Curve.order c) (Curve.order c) g)

let test_to_affine_batch_edges () =
  Alcotest.(check int) "empty batch" 0 (Array.length (Curve.to_affine_batch c [||]));
  (match Curve.to_affine_batch c [| Curve.infinity; Curve.infinity |] with
   | [| None; None |] -> ()
   | _ -> Alcotest.fail "all-infinity batch")

(* --- differential: multi-scalar multiplication --------------------------- *)

let naive_msm cv pairs =
  Array.fold_left (fun acc (k, p) -> Curve.add cv acc (naive_mul cv k p)) Curve.infinity pairs

(* secp256k1 exercises the GLV-split Strauss entries and the cached
   wide generator table; P-256 the plain-wNAF entries. *)
let prop_msm_matches_naive =
  QCheck.Test.make ~name:"msm = sum of naive muls" ~count:12
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) (QCheck.pair arb_scalar arb_scalar))
    (fun seeds ->
       List.for_all
         (fun (_, cv, gv) ->
            let pairs =
              Array.of_list
                (List.mapi
                   (fun i (k, a) ->
                      (* every third point is the generator, so the run
                         also covers the precomputed-table fast path *)
                      if i mod 3 = 2 then (k, gv) else (k, naive_mul cv a gv))
                   seeds)
            in
            Curve.equal cv (naive_msm cv pairs) (Curve.msm cv pairs))
         curves)

let prop_msm_forced_pippenger =
  QCheck.Test.make ~name:"forced-window Pippenger = naive" ~count:8
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.pair arb_scalar arb_scalar))
       (QCheck.int_range 1 16))
    (fun (seeds, w) ->
       List.for_all
         (fun (_, cv, gv) ->
            let pairs =
              Array.of_list (List.map (fun (k, a) -> (k, naive_mul cv a gv)) seeds)
            in
            Curve.equal cv (naive_msm cv pairs) (Curve.msm ~window:w cv pairs))
         curves)

let prop_msm_pre_matches_naive =
  QCheck.Test.make ~name:"msm_pre = naive over precomputed + plain pairs" ~count:8
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 3) (QCheck.pair arb_scalar arb_scalar))
       (QCheck.list_of_size (QCheck.Gen.int_range 0 3) (QCheck.pair arb_scalar arb_scalar)))
    (fun (pre_seeds, pair_seeds) ->
       List.for_all
         (fun (_, cv, gv) ->
            let pre_pts = List.map (fun (k, a) -> (k, naive_mul cv a gv)) pre_seeds in
            let pairs = List.map (fun (k, a) -> (k, naive_mul cv a gv)) pair_seeds in
            let want = naive_msm cv (Array.of_list (pre_pts @ pairs)) in
            let pre =
              Array.of_list (List.map (fun (k, p) -> (k, Curve.precompute cv p)) pre_pts)
            in
            Curve.equal cv want (Curve.msm_pre cv pre (Array.of_list pairs)))
         curves)

let test_msm_edge_cases () =
  List.iter
    (fun (name, cv, gv) ->
       let order = Curve.order cv in
       let chk label want got =
         Alcotest.(check bool) (Printf.sprintf "%s %s" name label) true
           (Curve.equal cv want got)
       in
       let chk_naive label pairs = chk label (naive_msm cv pairs) (Curve.msm cv pairs) in
       let p = Curve.mul_int cv 7 gv in
       chk "n=0" Curve.infinity (Curve.msm cv [||]);
       chk_naive "n=1" [| (Nat.of_int 42, p) |];
       chk "zero and order scalars drop" (Curve.mul_int cv 5 p)
         (Curve.msm cv [| (Nat.zero, gv); (Nat.of_int 5, p); (order, gv) |]);
       chk "infinity points drop" (Curve.mul_int cv 9 gv)
         (Curve.msm cv [| (Nat.of_int 3, Curve.infinity); (Nat.of_int 9, gv) |]);
       chk "all-degenerate batch" Curve.infinity
         (Curve.msm cv [| (Nat.zero, p); (Nat.of_int 4, Curve.infinity); (order, gv) |]);
       chk "duplicate points merge" (Curve.mul_int cv 10 p)
         (Curve.msm cv [| (Nat.of_int 4, p); (Nat.of_int 6, p) |]);
       chk "P and -P cancel" Curve.infinity
         (Curve.msm cv [| (Nat.of_int 8, p); (Nat.of_int 8, Curve.neg cv p) |]);
       (* tiny scalars ride the direct-add path (pinned batch weights) *)
       chk_naive "tiny scalars"
         [| (Nat.one, p); (Nat.two, gv); (Nat.of_int 3, Curve.double cv p) |];
       chk_naive "scalar above the order reduces"
         [| (Nat.add order (Nat.of_int 5), p) |];
       (* precompute: the table is faithful, and degenerate inputs are inert *)
       chk "precomp_point returns the point" p (Curve.precomp_point (Curve.precompute cv p));
       let k = Nat.of_hex "fedcba9876543210fedcba9876543210fedcba9876543210" in
       chk "msm_pre with empty pairs" (naive_mul cv k p)
         (Curve.msm_pre cv [| (k, Curve.precompute cv p) |] [||]);
       chk "precomputed infinity is inert" (naive_mul cv k p)
         (Curve.msm_pre cv
            [| (Nat.of_int 6, Curve.precompute cv Curve.infinity) |]
            [| (k, p) |]))
    curves

let () =
  Alcotest.run "group"
    [ ("known-answers",
       [ Alcotest.test_case "G on curve" `Quick test_generator_on_curve;
         Alcotest.test_case "2G" `Quick test_2g_known;
         Alcotest.test_case "5G" `Quick test_5g_known;
         Alcotest.test_case "order annihilates" `Quick test_order_annihilates;
         Alcotest.test_case "identity laws" `Quick test_identity_laws;
         Alcotest.test_case "point codec" `Quick test_codec;
         Alcotest.test_case "hash to point" `Quick test_hash_to_point;
         Alcotest.test_case "hash to scalar" `Quick test_hash_to_scalar;
         Alcotest.test_case "base table" `Quick test_base_table_matches;
         Alcotest.test_case "wide base table" `Quick test_wide_table_matches;
         Alcotest.test_case "Group_ctx.mul fast path" `Quick test_group_ctx_mul_fast_path;
         Alcotest.test_case "compressed codec" `Quick test_compressed_codec;
         Alcotest.test_case "field sqrt" `Quick test_field_sqrt ]);
      ("nist-p256",
       [ Alcotest.test_case "generator + order" `Quick test_p256_generator;
         Alcotest.test_case "2G known answer" `Quick test_p256_2g_known;
         Alcotest.test_case "group ctx + commitments" `Quick test_p256_group_ctx ]);
      ("group-laws",
       List.map QCheck_alcotest.to_alcotest
         [ prop_add_comm; prop_add_assoc; prop_scalar_distributes; prop_double_is_add;
           prop_neg_inverse; prop_codec_roundtrip; prop_table_matches_plain ]);
      ("scalar-mul-differential",
       Alcotest.test_case "edge cases" `Quick test_mul_edge_cases
       :: Alcotest.test_case "base table edge scalars" `Quick test_base_table_edge_scalars
       :: Alcotest.test_case "batch normalization edges" `Quick test_to_affine_batch_edges
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_mul_matches_naive; prop_base_table_matches_mul; prop_mul2_matches_parts;
              prop_to_affine_batch_matches; prop_add_cases_match_ref ]);
      ("comb-batch",
       [ Alcotest.test_case "batch edge scalars" `Quick test_batch_edge_scalars;
         Alcotest.test_case "batch sizes" `Quick test_batch_sizes;
         QCheck_alcotest.to_alcotest prop_batch_matches_mul ]);
      ("msm-differential",
       Alcotest.test_case "edge cases" `Quick test_msm_edge_cases
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_msm_matches_naive; prop_msm_forced_pippenger;
              prop_msm_pre_matches_naive ]) ]
