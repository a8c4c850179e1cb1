(* Elliptic-curve group tests: secp256k1 known answers, group laws as
   properties, point codec, hash-to-point/scalar. *)

let nat_hex = Test_helpers.nat_hex
module Curve = Dd_group.Curve
module Group_ctx = Dd_group.Group_ctx
module Sc = Dd_bignum.Sc
module Fe = Dd_bignum.Fe
module Ref_mod = Test_helpers.Ref_mod

(* The scalars of these tests are reference naturals; they cross into
   [Sc] (reduced mod n) at the curve's entry points. *)
let sc = Test_helpers.sc
let nat_of_sc = Test_helpers.nat_of_sc
let order = Test_helpers.order
let fe_hex x = Dd_crypto.Sha256.hex_of_string (Fe.to_bytes x)

let g = Group_ctx.g
let mul_g k = Group_ctx.mul_g (sc k)
let vartime k p = Curve.mul_vartime (sc k) p
let base_mul table k = Curve.mul_base_table table (sc k)
let msm ?window pairs = Curve.msm ?window (Array.map (fun (k, p) -> (sc k, p)) pairs)
let sc_halves ((n1, m1), (n2, m2)) = ((n1, sc m1), (n2, sc m2))
let split k =
  let (n1, m1), (n2, m2) = Curve.endo_split (sc k) in
  ((n1, nat_of_sc m1), (n2, nat_of_sc m2))

let point = Alcotest.testable (fun fmt _ -> Format.fprintf fmt "<point>") Curve.equal

let arb_scalar =
  QCheck.make
    ~print:nat_hex
    QCheck.Gen.(
      map
        (fun bytes -> Nat.of_bytes_be (String.init 32 (fun i -> Char.chr (List.nth bytes i))))
        (list_repeat 32 (int_range 0 255)))

(* --- known answers ------------------------------------------------------ *)

let test_generator_on_curve () =
  match Curve.to_affine g with
  | None -> Alcotest.fail "generator is infinity?"
  | Some xy -> Alcotest.(check bool) "on curve" true (Curve.on_curve xy)

let test_2g_known () =
  match Curve.to_affine (mul_g Nat.two) with
  | None -> Alcotest.fail "2G infinity"
  | Some (x, y) ->
    Alcotest.(check string) "2G.x"
      "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5" (fe_hex x);
    Alcotest.(check string) "2G.y"
      "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a" (fe_hex y)

let test_5g_known () =
  match Curve.to_affine (mul_g (Nat.of_int 5)) with
  | None -> Alcotest.fail "5G infinity"
  | Some (x, _) ->
    Alcotest.(check string) "5G.x"
      "2f8bde4d1a07209355b4a7250a5c5128e88b84bddc619ab7cba8d569b240efe4" (fe_hex x)

let test_order_annihilates () =
  Alcotest.check point "nG = O" Curve.infinity (mul_g order);
  Alcotest.check point "(n+1)G = G" g (mul_g (Nat.add order Nat.one))

let test_identity_laws () =
  Alcotest.check point "O + G = G" g (Curve.add Curve.infinity g);
  Alcotest.check point "G + O = G" g (Curve.add g Curve.infinity);
  Alcotest.check point "G - G = O" Curve.infinity (Curve.sub g g);
  Alcotest.check point "0 * G = O" Curve.infinity (mul_g Nat.zero)

let test_codec () =
  let p = mul_g (Nat.of_int 123456789) in
  (match Curve.decode (Curve.encode p) with
   | Some p' -> Alcotest.check point "roundtrip" p p'
   | None -> Alcotest.fail "decode failed");
  (match Curve.decode (Curve.encode Curve.infinity) with
   | Some p' -> Alcotest.check point "infinity roundtrip" Curve.infinity p'
   | None -> Alcotest.fail "infinity decode failed");
  Alcotest.(check bool) "garbage rejected" true (Curve.decode "garbage" = None);
  (* off-curve point rejected: valid-length encoding of (1, 1) *)
  let fake = "\x04" ^ Nat.to_bytes_be ~len:32 Nat.one ^ Nat.to_bytes_be ~len:32 Nat.one in
  Alcotest.(check bool) "off-curve rejected" true (Curve.decode fake = None)

let test_hash_to_point () =
  let h = Group_ctx.h in
  (match Curve.to_affine h with
   | None -> Alcotest.fail "H is infinity"
   | Some xy -> Alcotest.(check bool) "H on curve" true (Curve.on_curve xy));
  Alcotest.(check bool) "H <> G" false (Curve.equal h g);
  (* determinism *)
  let h2 = Curve.hash_to_point "d-demos second generator H" in
  Alcotest.check point "hash_to_point deterministic" h h2

let test_hash_to_scalar () =
  let s1 = Curve.hash_to_scalar [ "a"; "b" ] in
  let s2 = Curve.hash_to_scalar [ "a"; "b" ] in
  let s3 = Curve.hash_to_scalar [ "ab" ] in
  Alcotest.(check bool) "deterministic" true (Sc.equal s1 s2);
  Alcotest.(check bool) "part boundaries matter" false (Sc.equal s1 s3);
  Alcotest.(check bool) "reduced" true (Nat.compare (nat_of_sc s1) order < 0)

let test_compressed_codec () =
  List.iter
    (fun k ->
       let p = mul_g (Nat.of_int k) in
       let enc = Curve.encode_compressed p in
       Alcotest.(check int) "33 bytes" 33 (String.length enc);
       match Curve.decode_compressed enc with
       | Some p' -> Alcotest.check point (Printf.sprintf "%dG roundtrip" k) p p'
       | None -> Alcotest.fail "compressed decode failed")
    [ 1; 2; 3; 7; 123456789 ];
  (match Curve.decode_compressed (Curve.encode_compressed Curve.infinity) with
   | Some p -> Alcotest.check point "infinity" Curve.infinity p
   | None -> Alcotest.fail "infinity compressed decode failed");
  Alcotest.(check bool) "garbage rejected" true (Curve.decode_compressed "junk" = None);
  (* an x with no point on the curve must be rejected *)
  let rec non_residue_x i =
    let candidate = "\x02" ^ Nat.to_bytes_be ~len:32 (Nat.of_int i) in
    if Curve.decode_compressed candidate = None then i else non_residue_x (i + 1)
  in
  Alcotest.(check bool) "some x has no curve point" true (non_residue_x 2 > 0)

(* Square root in F_p through [Fe.sqrt] (p = 3 mod 4); [None] for a
   non-residue. *)
let field_sqrt a =
  let y = Test_helpers.fe a in
  if Fe.sqrt y y then Some (Test_helpers.nat_of_fe y) else None

let test_field_sqrt () =
  let fp = Test_helpers.prime in
  let x = Nat.of_int 1234567 in
  let sq = Ref_mod.mul fp x x in
  (match field_sqrt sq with
   | Some r ->
     Alcotest.(check bool) "sqrt of square" true (Nat.equal (Ref_mod.mul fp r r) sq)
   | None -> Alcotest.fail "square has no root?");
  (* find a non-residue: for p = 3 mod 4, -1 is one *)
  let minus_one = Ref_mod.sub fp Nat.zero Nat.one in
  Alcotest.(check bool) "-1 is a non-residue" true (field_sqrt minus_one = None)

(* --- group-law properties ----------------------------------------------- *)

let prop_add_comm =
  QCheck.Test.make ~name:"P+Q = Q+P" ~count:30 (QCheck.pair arb_scalar arb_scalar)
    (fun (a, b) ->
       let p = mul_g a and q = mul_g b in
       Curve.equal (Curve.add p q) (Curve.add q p))

let prop_add_assoc =
  QCheck.Test.make ~name:"(P+Q)+R = P+(Q+R)" ~count:20
    (QCheck.triple arb_scalar arb_scalar arb_scalar)
    (fun (a, b, d) ->
       let p = mul_g a and q = mul_g b and r = mul_g d in
       Curve.equal (Curve.add (Curve.add p q) r) (Curve.add p (Curve.add q r)))

let prop_scalar_distributes =
  QCheck.Test.make ~name:"(a+b)G = aG + bG" ~count:30 (QCheck.pair arb_scalar arb_scalar)
    (fun (a, b) ->
       Curve.equal
         (mul_g (Nat.add a b))
         (Curve.add (mul_g a) (mul_g b)))

let prop_double_is_add =
  QCheck.Test.make ~name:"2P = P+P" ~count:30 arb_scalar
    (fun a ->
       let p = mul_g a in
       Curve.equal (vartime Nat.two p) (Curve.add p p))

let prop_neg_inverse =
  QCheck.Test.make ~name:"P + (-P) = O" ~count:30 arb_scalar
    (fun a ->
       let p = mul_g a in
       Curve.is_infinity (Curve.add p (Curve.neg p)))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"decode . encode = id" ~count:30 arb_scalar
    (fun a ->
       let p = mul_g a in
       match Curve.decode (Curve.encode p) with
       | Some p' -> Curve.equal p p'
       | None -> false)

(* Hostile point bytes: random strings, bit-flipped encodings of valid
   points (33 and 65 bytes, any prefix byte), and encodings whose x is a
   valid one plus p. Neither decoder raises, and every point either
   accepts is on the curve and re-encodes to the same bytes: both
   coordinates are below p and each point has one encoding. *)
let prop_point_bytes_fuzz =
  let flip s bits =
    let b = Bytes.of_string s in
    List.iter
      (fun k ->
         let i = k / 8 mod Bytes.length b in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (k mod 8)))))
      bits;
    Bytes.to_string b
  in
  let encoded compressed k =
    let p = mul_g k in
    if compressed then Curve.encode_compressed p else Curve.encode p
  in
  let with_prefix b s = String.make 1 (Char.chr b) ^ String.sub s 1 (String.length s - 1) in
  (* x = i + p, for a small i on the curve when it has a y *)
  let above_p i =
    let x = Nat.of_int i in
    let fp = Test_helpers.prime in
    let xp = Nat.to_bytes_be ~len:32 (Nat.add x fp) in
    let rhs = Ref_mod.add fp (Ref_mod.mul fp x (Ref_mod.mul fp x x)) (Nat.of_int 7) in
    match field_sqrt rhs with
    | Some y -> [ "\x02" ^ xp; "\x03" ^ xp; "\x04" ^ xp ^ Nat.to_bytes_be ~len:32 y ]
    | None -> [ "\x02" ^ xp; "\x03" ^ xp ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ (2, map (fun s -> [ s ]) (string_size (oneofl [ 0; 1; 32; 33; 64; 65; 66 ])));
          (4, map3 (fun cmp k bits -> [ flip (encoded cmp k) bits ])
                bool (QCheck.gen arb_scalar) (list_size (int_range 1 3) (int_bound 520)));
          (2, map3 (fun cmp k b -> [ with_prefix b (encoded cmp k) ])
                bool (QCheck.gen arb_scalar) (int_bound 255));
          (1, map above_p (int_bound 4096)) ])
  in
  let total decode encode s =
    match decode s with
    | None -> true
    | Some p ->
      (match Curve.to_affine p with None -> true | Some xy -> Curve.on_curve xy)
      && String.equal (encode p) s
  in
  QCheck.Test.make ~name:"point decoders: hostile bytes" ~count:1000 ~long_factor:100
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map (Printf.sprintf "%S") l)) gen)
    (List.for_all (fun s ->
         total Curve.decode Curve.encode s
         && total Curve.decode_compressed Curve.encode_compressed s))

let prop_table_matches_plain =
  QCheck.Test.make ~name:"table mul = plain mul" ~count:30 arb_scalar
    (fun a -> Curve.equal (mul_g a) (vartime a g))

(* --- differential: fast scalar-multiplication paths ---------------------- *)

(* The reference: a textbook affine group law (chord and tangent, None
   the identity) over the reference naturals mod p ([Ref_mod]), sharing
   no code with Fe or the Jacobian formulas. Its tangent keeps the
   general a term, and it takes secp256k1's constants as written here,
   not from Curve. *)
module Ref = struct
  module M = Ref_mod

  let fp = Nat.of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"
  let a = Nat.zero
  let order = Nat.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

  let gen =
    Some
      ( Nat.of_hex "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
        Nat.of_hex "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8" )

  let add p q =
    match p, q with
    | None, r | r, None -> r
    | Some (x1, y1), Some (x2, y2) ->
      if Nat.equal x1 x2 && Nat.is_zero (M.add fp y1 y2) then None
      else begin
        let l =
          if Nat.equal x1 x2 then
            M.mul fp (M.add fp (M.mul fp (Nat.of_int 3) (M.mul fp x1 x1)) a)
              (M.inv fp (M.add fp y1 y1))
          else M.mul fp (M.sub fp y2 y1) (M.inv fp (M.sub fp x2 x1))
        in
        let x3 = M.sub fp (M.sub fp (M.mul fp l l) x1) x2 in
        Some (x3, M.sub fp (M.mul fp l (M.sub fp x1 x3)) y1)
      end

  (* double-and-add, the scalar reduced mod the order *)
  let mul k p =
    let k = Nat.rem k order in
    let acc = ref None in
    for i = Nat.bit_length k - 1 downto 0 do
      acc := add !acc !acc;
      if Nat.testbit k i then acc := add !acc p
    done;
    !acc
end

(* Curve points in and out of the reference (the affine edge). *)
let of_ref = function
  | None -> Curve.infinity
  | Some (x, y) -> Curve.of_affine (Test_helpers.fe x, Test_helpers.fe y)
let to_ref pt =
  Option.map (fun (x, y) -> (Test_helpers.nat_of_fe x, Test_helpers.nat_of_fe y)) (Curve.to_affine pt)
let agrees want got =
  match want, to_ref got with
  | None, None -> true
  | Some (x, y), Some (x', y') -> Nat.equal x x' && Nat.equal y y'
  | _ -> false

(* The reference k * P of a curve point, as a curve point. *)
let naive_mul k pt = of_ref (Ref.mul k (to_ref pt))

(* P + P, P + (-P), O + P and P + O against the reference, through the
   general add (a Jacobian q) and the mixed add (an affine q). *)
let prop_add_cases_match_ref =
  QCheck.Test.make ~name:"add special cases = reference" ~count:10 arb_scalar
    (fun a ->
       let rp = Ref.mul a Ref.gen in
       let twice = Ref.add rp rp in
       let pj = vartime a g and pa = of_ref rp and o = Curve.infinity in
       List.for_all
         (fun (p, q, want) -> agrees want (Curve.add p q))
         [ (pj, pj, twice); (pj, Curve.neg pj, None); (o, pj, rp); (pj, o, rp);
           (pj, pa, twice); (pa, pa, twice); (pj, Curve.neg pa, None); (o, pa, rp);
           (pa, o, rp) ])

(* Comb tables over the generator: width 8 (the Group_ctx generator
   format) and width 4 (the per-signer verification format). *)
let table = Curve.make_base_table ~width:8 g
let narrow_table = Curve.make_base_table ~width:4 g
let table_of_width width = if width = 8 then table else narrow_table

(* A table's layout: ceil(bits/w) rows of 2^(w-1) entries, every entry
   affine and equal to (2j+1) * 2^(w*i) * B, with the reference rows
   walked by general adds. A table over the identity has no rows. *)
let check_table_layout ~width =
  let rows = Curve.base_table_rows (table_of_width width) in
  Alcotest.(check int) "rows"
    ((Nat.bit_length order + width - 1) / width) (Array.length rows);
  let base = ref g in
  Array.iteri
    (fun i row ->
       Alcotest.(check int) "entries" (1 lsl (width - 1)) (Array.length row);
       let twice = Curve.add !base !base in
       let want = ref !base in
       Array.iteri
         (fun j e ->
            if not (Curve.is_affine e && Curve.equal !want e) then
              Alcotest.failf "entry (%d, %d) is not affine (2j+1)*2^(%d*i)*B" i j width;
            want := Curve.add !want twice)
         row;
       for _ = 1 to width do base := Curve.add !base !base done)
    rows;
  let rows = Curve.base_table_rows (Curve.make_base_table ~width Curve.infinity) in
  Alcotest.(check int) "identity table has no rows" 0 (Array.length rows)

let test_base_table_matches () = check_table_layout ~width:4
let test_wide_table_matches () = check_table_layout ~width:8

(* The scalar whose recoded digits come from d (curve.ml: the signed
   digits of k are 2 b_i - (2^w - 1) for the base-2^w digits b_i of d =
   (k + 2^(wW) - 1) / 2 mod n): k = 2d - (2^(wW) - 1) mod n. *)
let scalar_of_recoded ~width d =
  let bits = Nat.bit_length order in
  let ww = width * ((bits + width - 1) / width) in
  Ref_mod.sub order (Ref_mod.add order d d) (Nat.sub (Nat.shift_left Nat.one ww) Nat.one)

(* Scalars at the table's edges, for a width-w table: 0, 1, 2, n-1,
   n-2; a top recoded digit of +max and -max (d = n-1 and d = 0); the
   two scalars whose last comb add meets the equal-point case,
   +-2 (2^w - 1) 2^(w(W-1)) mod n; and a maximal digit in every row. *)
let edge_scalars ~width =
  let rows = (Nat.bit_length order + width - 1) / width in
  let top = 2 * ((1 lsl width) - 1) in
  let equal_case =
    Nat.rem (Nat.mul (Nat.of_int top) (Nat.shift_left Nat.one (width * (rows - 1)))) order
  in
  [ Nat.zero; Nat.one; Nat.two; Nat.sub order Nat.one; Nat.sub order Nat.two;
    scalar_of_recoded ~width (Nat.sub order Nat.one);
    scalar_of_recoded ~width Nat.zero;
    equal_case; Ref_mod.sub order Nat.zero equal_case ]
  @ List.init rows (fun i ->
      Nat.mul (Nat.of_int ((1 lsl width) - 1)) (Nat.shift_left Nat.one (width * i)))

let test_base_table_edge_scalars () =
  List.iter
    (fun width ->
       List.iter
         (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "w%d k = %s" width (nat_hex k)) true
              (Curve.equal (vartime k g) (base_mul (table_of_width width) k)))
         (edge_scalars ~width))
    [ 4; 8 ]

(* mul_base_table against the reference double-and-add. *)
let prop_base_table_matches_mul =
  QCheck.Test.make ~name:"mul_base_table = mul on the generator" ~count:20 arb_scalar
    (fun k -> Curve.equal (naive_mul k g) (base_mul table k))

(* --- GLV verification tables ------------------------------------------- *)

(* secp256k1's lambda (phi(P) = lambda * P) and the split's lattice
   basis magnitudes b1 and b2, as published with libsecp256k1. *)
let lambda = Nat.of_hex "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"
let glv_b1 = Nat.of_hex "e4437ed6010e88286f547fa90abfe4c3"
let glv_b2 = Nat.of_hex "3086d221a7d46bcde86c90e49284eb15"

let signed (neg, m) = if neg then Ref_mod.sub order Nat.zero m else Nat.rem m order

(* k1 + k2 * lambda mod n for two signed halves. *)
let recombine (h1, h2) = Ref_mod.add order (signed h1) (Ref_mod.mul order (signed h2) lambda)

(* Scalars that push the split's rounding to its worst: b k / n next to
   j + 1/2 for the largest such j below b, next to the usual edges. *)
let split_edges =
  let near_half b =
    List.concat_map
      (fun d ->
         (* k = floor((2j + 1) n / 2b) and the next one straddle j + 1/2 *)
         let j = Nat.sub b (Nat.of_int (1 + d)) in
         let k = Nat.div (Nat.mul (Nat.add (Nat.add j j) Nat.one) order) (Nat.add b b) in
         [ k; Nat.add k Nat.one ])
      [ 0; 1; 2; 3 ]
  in
  [ Nat.zero; Nat.one; Nat.two; Nat.sub order Nat.one; Nat.sub order Nat.two; lambda;
    Ref_mod.sub order Nat.zero lambda; Ref_mod.mul order lambda lambda;
    Nat.shift_left Nat.one 128; Nat.shift_left Nat.one 255;
    Nat.sub order (Nat.shift_left Nat.one 128) ]
  @ near_half glv_b1 @ near_half glv_b2

(* The split recombines to its scalar, and neither half reaches past
   128 bits (the bound derived at [endo_bits] in curve.ml), on random
   scalars and the edges above. *)
let test_endo_split_bound () =
  let rng = Dd_crypto.Drbg.create ~seed:"endo split" in
  let widest = ref 0 in
  List.iter
    (fun k ->
       let (n1, m1), (n2, m2) = split k in
       if not (Nat.equal (recombine ((n1, m1), (n2, m2))) k) then
         Alcotest.failf "split of %s does not recombine" (nat_hex k);
       widest := max !widest (max (Nat.bit_length m1) (Nat.bit_length m2)))
    (split_edges @ List.init 2000 (fun _ -> nat_of_sc (Curve.random_scalar rng)));
  Alcotest.(check bool) (Printf.sprintf "widest half %d bits, at most 128" !widest) true
    (!widest <= 128)

(* The walk's cases, each half in turn: zero, odd, even, negative, and
   the row bound (32 rows of width 4 cover 128 bits: 2^128 - 1 odd and
   2^128 - 2 even), all against u*G + (k1 + k2 lambda) * P by
   [mul_vartime]. A half one bit past the bound is refused, and a
   table over the identity takes only zero halves. *)
let endo_base = Curve.hash_to_point "glv table base"
let endo_table = (Curve.make_endo_tables [| endo_base |]).(0)

let endo_matches u halves =
  Curve.equal (Curve.mul2_endo table (sc u) endo_table (sc_halves halves))
    (Curve.add (vartime u g) (vartime (recombine halves) endo_base))

let test_endo_table_halves () =
  let bound = Nat.sub (Nat.shift_left Nat.one 128) Nat.one in
  let odd128 = Nat.of_hex "c0ffee0123456789abcdef0fedcba987" in
  let magnitudes =
    [ Nat.zero; Nat.one; Nat.two; Nat.of_int 7; Nat.of_int 8; odd128; Nat.add odd128 Nat.one;
      bound; Nat.sub bound Nat.one ]
  in
  let u = Nat.of_hex "3b9ac9ff5a5a5a5a0123456789abcdef0fedcba9876543210aa55aa55aa55aa5" in
  List.iter
    (fun m1 ->
       List.iter
         (fun m2 ->
            List.iter
              (fun (n1, n2) ->
                 let halves = ((n1, m1), (n2, m2)) in
                 if not (endo_matches u halves) then
                   Alcotest.failf "halves %s%s, %s%s" (if n1 then "-" else "") (nat_hex m1)
                     (if n2 then "-" else "") (nat_hex m2))
              [ (false, false); (true, false); (false, true); (true, true) ])
         magnitudes)
    magnitudes;
  Alcotest.(check bool) "u = 0" true (endo_matches Nat.zero ((true, odd128), (false, Nat.two)));
  let past = Nat.shift_left Nat.one 128 in
  let refused tbl halves =
    match Curve.mul2_endo table (sc u) tbl (sc_halves halves) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "first half past the rows" true
    (refused endo_table ((false, past), (false, Nat.one)));
  Alcotest.(check bool) "second half past the rows" true
    (refused endo_table ((false, Nat.one), (true, past)));
  let void = (Curve.make_endo_tables [| Curve.infinity |]).(0) in
  Alcotest.(check point) "identity table, zero halves" (vartime u g)
    (Curve.mul2_endo table (sc u) void (sc_halves ((false, Nat.zero), (true, Nat.zero))));
  Alcotest.(check bool) "identity table, a nonzero half" true
    (refused void ((false, Nat.one), (false, Nat.zero)))

let prop_endo_table_matches_mul =
  QCheck.Test.make ~name:"mul2_endo u tbl (endo_split k) = uG + kP" ~count:20
    (QCheck.pair arb_scalar arb_scalar)
    (fun (u, k) ->
       endo_matches u (split k))

(* --- lockstep batch ------------------------------------------------------- *)

let hv = Curve.hash_to_point "d-demos second generator H"
let h_table = Curve.make_base_table ~width:8 hv

(* The reference sum of a job, by [mul_vartime]. *)
let job_by_mul bases job =
  List.fold_left (fun acc (b, k) -> Curve.add acc (vartime k b)) Curve.infinity
    (List.map2 (fun b (_, k) -> (b, k)) bases job)

let batch_matches jobs bases =
  let got =
    Curve.mul_base_batch (Array.of_list (List.map (List.map (fun (t, k) -> (t, sc k))) jobs))
  in
  Array.length got = List.length jobs
  && List.for_all2
    (fun (job, bs) p ->
       (Curve.is_infinity p || Curve.is_affine p) && Curve.equal (job_by_mul bs job) p)
    (List.combine jobs bases) (Array.to_list got)

(* Every edge scalar alone on G (both widths), and as the randomness of
   m*G + r*H with m in {0, 1} (and as m with a random r). *)
let test_batch_edge_scalars () =
  let r = Nat.of_hex "3b9ac9ff5a5a5a5a0123456789abcdef0fedcba9876543210aa55aa55aa55aa5" in
  let wide = edge_scalars ~width:8 in
  let edges = wide @ edge_scalars ~width:4 in
  let single = List.map (fun k -> ([ (table, k) ], [ g ])) edges in
  let narrow = List.map (fun k -> ([ (narrow_table, k) ], [ g ])) edges in
  let two =
    List.concat_map
      (fun k ->
         [ ([ (table, Nat.zero); (h_table, k) ], [ g; hv ]);
           ([ (table, Nat.one); (h_table, k) ], [ g; hv ]);
           ([ (table, k); (h_table, r) ], [ g; hv ]);
           (* the same base twice: the merge meets P + P and P + (-P) *)
           ([ (table, k); (table, k) ], [ g; g ]);
           ([ (table, k); (table, Ref_mod.sub order Nat.zero k) ], [ g; g ]) ])
      wide
  in
  let cases = single @ narrow @ two @ [ ([], []) ] in
  Alcotest.(check bool) "edge-scalar batch" true
    (batch_matches (List.map fst cases) (List.map snd cases))

(* Batch sizes 0 and 1, and one group's size plus and minus one (the
   last against mul_base_table, itself pinned to [naive_mul] above). *)
let test_batch_sizes () =
  Alcotest.(check int) "empty batch" 0 (Array.length (Curve.mul_base_batch [||]));
  Alcotest.(check bool) "one job" true
    (batch_matches [ [ (table, Nat.of_int 12345) ] ] [ [ g ] ]);
  let rng = Dd_crypto.Drbg.create ~seed:"comb-batch sizes" in
  List.iter
    (fun n ->
       let jobs =
         Array.init n (fun i ->
             let k = Curve.random_scalar rng in
             if i mod 3 = 0 then [ (table, Sc.of_int (i land 1)); (h_table, k) ] else [ (table, k) ])
       in
       let got = Curve.mul_base_batch jobs in
       Array.iteri
         (fun i job ->
            let want =
              List.fold_left (fun acc (tb, k) -> Curve.add acc (Curve.mul_base_table tb k))
                Curve.infinity job
            in
            if not (Curve.is_affine got.(i) && Curve.equal want got.(i)) then
              Alcotest.failf "batch of %d: job %d differs" n i)
         jobs)
    [ Curve.batch_group - 1; Curve.batch_group + 1 ]

let prop_batch_matches_mul =
  QCheck.Test.make ~name:"mul_base_batch = mul on G and H" ~count:10
    (QCheck.list_of_size (QCheck.Gen.int_range 0 6) (QCheck.triple QCheck.bool arb_scalar arb_scalar))
    (fun specs ->
       let cases =
         List.map
           (fun (two, a, b) ->
              if two then ([ (table, a); (h_table, b) ], [ g; hv ]) else ([ (h_table, a) ], [ hv ]))
           specs
       in
       batch_matches (List.map fst cases) (List.map snd cases))

(* Both paths on a base other than G: a comb table of the point's own
   (width 4, as a signer's), and wNAF. *)
let prop_mul_matches_naive =
  QCheck.Test.make ~name:"mul_base_table and mul_vartime = naive double-and-add" ~count:25
    (QCheck.pair arb_scalar arb_scalar)
    (fun (a, k) ->
       let pt = naive_mul a g in
       let want = naive_mul k pt in
       Curve.equal want (base_mul (Curve.make_base_table ~width:4 pt) k)
       && Curve.equal want (vartime k pt))

(* u*G + v*P - Q = O as one verification equation, checked alone at
   weight one ([Group_ctx.holds]): the serial verifiers' kernel. *)
let one_equation u v p q =
  Group_ctx.holds (fun acc w ->
      Group_ctx.acc_add acc (Sc.mul w (sc u)) g;
      Group_ctx.acc_add acc (Sc.mul w (sc v)) p;
      Group_ctx.acc_sub acc w q)

let prop_one_equation_matches_parts =
  QCheck.Test.make ~name:"one equation uG + vP - Q = O" ~count:25
    (QCheck.triple arb_scalar arb_scalar arb_scalar)
    (fun (u, v, a) ->
       let p = mul_g a in
       let q = Curve.add (vartime u g) (vartime v p) in
       one_equation u v p q && not (one_equation u v p (Curve.add q g)))

let prop_to_affine_batch_matches =
  QCheck.Test.make ~name:"to_affine_batch = pointwise to_affine" ~count:20
    (QCheck.list_of_size (QCheck.Gen.int_range 0 9) arb_scalar)
    (fun ks ->
       (* interleave finite points with infinities *)
       let pts =
         Array.of_list
           (List.concat_map (fun k -> [ mul_g k; Curve.infinity ]) ks)
       in
       let batch = Curve.to_affine_batch pts in
       Array.for_all2
         (fun got pt ->
            match got, Curve.to_affine pt with
            | None, None -> true
            | Some (x, y), Some (x', y') -> Fe.equal x x' && Fe.equal y y'
            | _ -> false)
         batch pts)

let test_mul_edge_cases () =
  let chk label want got = Alcotest.(check bool) label true (Curve.equal want got) in
  chk "vartime 0*G = O" Curve.infinity (vartime Nat.zero g);
  chk "vartime k*O = O" Curve.infinity (vartime (Nat.of_int 7) Curve.infinity);
  chk "vartime n*G = O" Curve.infinity (vartime order g);
  chk "vartime (n-1)*G = -G" (Curve.neg g) (vartime (Nat.sub order Nat.one) g);
  chk "vartime (n+1)*G = G" g (vartime (Nat.add order Nat.one) g);
  chk "comb n*G = O" Curve.infinity (mul_g order);
  chk "comb (n-1)*G = -G" (Curve.neg g) (mul_g (Nat.sub order Nat.one));
  (* P + (-P) through the vartime adds *)
  chk "P + (-P) = O" Curve.infinity
    (Curve.add (vartime Nat.two g) (Curve.neg (vartime Nat.two g)));
  (* one equation u*G + v*P - Q = O, degenerate inputs; P is not G
     itself, so its term reaches the MSM rather than G's comb leg *)
  let p = mul_g (Nat.of_int 3) in
  let holds label u v p q = Alcotest.(check bool) label true (one_equation u v p q) in
  let fails label u v p q = Alcotest.(check bool) label false (one_equation u v p q) in
  holds "0G + 0P = O" Nat.zero Nat.zero p Curve.infinity;
  fails "0G + 0P <> G" Nat.zero Nat.zero p g;
  holds "uG + 0P = uG" (Nat.of_int 9) Nat.zero p (mul_g (Nat.of_int 9));
  fails "uG + 0P <> (u+1)G" (Nat.of_int 9) Nat.zero p (mul_g (Nat.of_int 10));
  holds "0G + vP = vP" Nat.zero (Nat.of_int 11) p (mul_g (Nat.of_int 33));
  holds "uG + vO = uG" (Nat.of_int 5) (Nat.of_int 13) Curve.infinity
    (mul_g (Nat.of_int 5));
  fails "uG + vO <> uG + vG" (Nat.of_int 5) (Nat.of_int 13) Curve.infinity
    (mul_g (Nat.of_int 18));
  holds "nG + nP = O" order order p Curve.infinity;
  holds "(n-1)G + (n+1)P = -G + P" (Nat.sub order Nat.one) (Nat.add order Nat.one) p
    (Curve.sub p g)

let test_to_affine_batch_edges () =
  Alcotest.(check int) "empty batch" 0 (Array.length (Curve.to_affine_batch [||]));
  (match Curve.to_affine_batch [| Curve.infinity; Curve.infinity |] with
   | [| None; None |] -> ()
   | _ -> Alcotest.fail "all-infinity batch")

(* --- differential: multi-scalar multiplication --------------------------- *)

let naive_msm pairs =
  Array.fold_left (fun acc (k, p) -> Curve.add acc (naive_mul k p)) Curve.infinity pairs

(* The GLV-split Strauss entries, with the generator among the points. *)
let prop_msm_matches_naive =
  QCheck.Test.make ~name:"msm = sum of naive muls" ~count:12
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) (QCheck.pair arb_scalar arb_scalar))
    (fun seeds ->
       let pairs =
         Array.of_list
           (List.mapi
              (fun i (k, a) ->
                 (* every third point is the generator, so a run
                    may also hold one point twice *)
                 if i mod 3 = 2 then (k, g) else (k, naive_mul a g))
              seeds)
       in
       Curve.equal (naive_msm pairs) (msm pairs))

let prop_msm_forced_pippenger =
  QCheck.Test.make ~name:"forced-window Pippenger = naive" ~count:8
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.pair arb_scalar arb_scalar))
       (QCheck.int_range 1 16))
    (fun (seeds, w) ->
       let pairs = Array.of_list (List.map (fun (k, a) -> (k, naive_mul a g)) seeds) in
       Curve.equal (naive_msm pairs) (msm ~window:w pairs))

let test_msm_edge_cases () =
  let chk label want got = Alcotest.(check bool) label true (Curve.equal want got) in
  let chk_naive label pairs = chk label (naive_msm pairs) (msm pairs) in
  let p = mul_g (Nat.of_int 7) in
  chk "n=0" Curve.infinity (Curve.msm [||]);
  chk_naive "n=1" [| (Nat.of_int 42, p) |];
  chk "zero and order scalars drop" (vartime (Nat.of_int 5) p)
    (msm [| (Nat.zero, g); (Nat.of_int 5, p); (order, g) |]);
  chk "infinity points drop" (mul_g (Nat.of_int 9))
    (msm [| (Nat.of_int 3, Curve.infinity); (Nat.of_int 9, g) |]);
  chk "all-degenerate batch" Curve.infinity
    (msm [| (Nat.zero, p); (Nat.of_int 4, Curve.infinity); (order, g) |]);
  chk "duplicate points merge" (vartime (Nat.of_int 10) p)
    (msm [| (Nat.of_int 4, p); (Nat.of_int 6, p) |]);
  chk "P and -P cancel" Curve.infinity
    (msm [| (Nat.of_int 8, p); (Nat.of_int 8, Curve.neg p) |]);
  (* tiny scalars ride the direct-add path (pinned batch weights) *)
  chk_naive "tiny scalars" [| (Nat.one, p); (Nat.two, g); (Nat.of_int 3, Curve.add p p) |];
  chk_naive "scalar above the order reduces" [| (Nat.add order (Nat.of_int 5), p) |]

(* The arena is reused: calls of random sizes on both sides of the
   256-term line, some with a forced window, run back to back and each
   must equal the reference, so no call reads what an earlier one left.
   Terms come from a pool of scalars (zero, one or two bits, 128-bit
   weights, full width, one above the order) and points (the identity
   among them), so each reference multiplication is computed once. *)
let msm_pool_scalars =
  let rng = Dd_crypto.Drbg.create ~seed:"msm pool" in
  Array.concat
    [ [| Nat.zero; Nat.one; Nat.two; Nat.of_int 3; Nat.add order (Nat.of_int 5) |];
      Array.init 3 (fun _ -> Nat.of_bytes_be (Dd_crypto.Drbg.bytes rng 16));
      Array.init 3 (fun _ -> nat_of_sc (Curve.random_scalar rng)) ]

let msm_pool_points =
  Array.append [| Curve.infinity |]
    (Array.init 8 (fun i -> Curve.hash_to_point (Printf.sprintf "msm pool %d" i)))

let naive_pool = Hashtbl.create 128

let naive_pool_mul i j =
  match Hashtbl.find_opt naive_pool (i, j) with
  | Some p -> p
  | None ->
    let p = naive_mul msm_pool_scalars.(i) msm_pool_points.(j) in
    Hashtbl.add naive_pool (i, j) p;
    p

let prop_msm_reuse =
  let call =
    QCheck.(
      triple (int_range 1 300) (option (int_range 1 10)) (int_bound 1_000_000))
  in
  QCheck.Test.make ~name:"interleaved sizes = naive" ~count:12
    (QCheck.list_of_size (QCheck.Gen.int_range 2 4) call)
    (List.for_all (fun (n, window, seed) ->
         let st = Random.State.make [| seed |] in
         let terms =
           Array.init n (fun _ ->
               (Random.State.int st (Array.length msm_pool_scalars),
                Random.State.int st (Array.length msm_pool_points)))
         in
         let pairs = Array.map (fun (i, j) -> (msm_pool_scalars.(i), msm_pool_points.(j))) terms in
         let want =
           Array.fold_left (fun acc (i, j) -> Curve.add acc (naive_pool_mul i j)) Curve.infinity
             terms
         in
         Curve.equal want (msm ?window pairs)))

(* A call allocates per call, not per term: after a warm-up at the
   larger size, 136 more terms of the batch verifiers' shape (128-bit
   weights, besides five full-width key coefficients) add at most 64
   minor words each. *)
let test_msm_alloc_per_term () =
  let rng = Dd_crypto.Drbg.create ~seed:"msm alloc" in
  let terms n =
    Array.init (n + 5) (fun i ->
        ((if i < n then Sc.of_bytes_mod (Dd_crypto.Drbg.bytes rng 16) else Curve.random_scalar rng),
         Curve.hash_to_point (Printf.sprintf "msm alloc %d" i)))
  in
  let small = terms 64 and large = terms 200 in
  let words pairs =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Curve.msm pairs));
    Gc.minor_words () -. before
  in
  ignore (words large);
  let per_term = (words large -. words small) /. 136. in
  Alcotest.(check bool) (Printf.sprintf "%.1f minor words per term, at most 64" per_term) true
    (per_term <= 64.)

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
         Alcotest.test_case "compressed codec" `Quick test_compressed_codec;
         Alcotest.test_case "field sqrt" `Quick test_field_sqrt ]);
      ("group-laws",
       List.map QCheck_alcotest.to_alcotest
         [ prop_add_comm; prop_add_assoc; prop_scalar_distributes; prop_double_is_add;
           prop_neg_inverse; prop_codec_roundtrip; prop_table_matches_plain;
           prop_point_bytes_fuzz ]);
      ("scalar-mul-differential",
       Alcotest.test_case "edge cases" `Quick test_mul_edge_cases
       :: Alcotest.test_case "base table edge scalars" `Quick test_base_table_edge_scalars
       :: Alcotest.test_case "batch normalization edges" `Quick test_to_affine_batch_edges
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_mul_matches_naive; prop_base_table_matches_mul; prop_one_equation_matches_parts;
              prop_to_affine_batch_matches; prop_add_cases_match_ref ]);
      ("glv-tables",
       [ Alcotest.test_case "split halves within 128 bits" `Quick test_endo_split_bound;
         Alcotest.test_case "table halves: zero, even, negative, row bound" `Quick
           test_endo_table_halves;
         QCheck_alcotest.to_alcotest prop_endo_table_matches_mul ]);
      ("comb-batch",
       [ Alcotest.test_case "batch edge scalars" `Quick test_batch_edge_scalars;
         Alcotest.test_case "batch sizes" `Quick test_batch_sizes;
         QCheck_alcotest.to_alcotest prop_batch_matches_mul ]);
      ("msm-differential",
       Alcotest.test_case "edge cases" `Quick test_msm_edge_cases
       :: Alcotest.test_case "allocation per term" `Quick test_msm_alloc_per_term
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_msm_matches_naive; prop_msm_forced_pippenger; prop_msm_reuse ]) ]
