(* Unit and property tests for the fixed-width arithmetic of
   [Dd_bignum], against the arbitrary-precision naturals of the
   test-side [Nat] library: [Sc] (scalars mod secp256k1's order n) and
   [Fe] (elements mod its prime p) against [Nat.rem] and the reference
   modular arithmetic of [Test_helpers.Ref_mod], which is itself checked
   here on secp256k1's and P-256's moduli. *)

let nat_hex = Test_helpers.nat_hex
module Ref_mod = Test_helpers.Ref_mod
module Fe = Dd_bignum.Fe
module Sc = Dd_bignum.Sc

let nat = Alcotest.testable (fun fmt a -> Format.pp_print_string fmt (nat_hex a)) Nat.equal

(* --- generators ------------------------------------------------------ *)

let gen_nat_bits bits =
  QCheck.Gen.(
    map
      (fun bytes ->
         Nat.of_bytes_be (String.init (bits / 8 + 1) (fun i -> Char.chr (List.nth bytes i))))
      (list_repeat (bits / 8 + 1) (int_range 0 255)))

let arb_nat = QCheck.make ~print:nat_hex (gen_nat_bits 256)
let arb_small = QCheck.make ~print:nat_hex (gen_nat_bits 64)
let arb_nat512 = QCheck.make ~print:nat_hex (gen_nat_bits 512)

let secp_p = Test_helpers.prime

let p256_p =
  Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"

let secp_n = Test_helpers.order

let p256_n =
  Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"

(* The two curve orders, and all four 256-bit moduli: the two curve
   field primes and the two curve orders. *)
let curve_orders = [ ("secp256k1-n", secp_n); ("p256-n", p256_n) ]
let all_moduli = ("secp256k1-p", secp_p) :: ("p256-p", p256_p) :: curve_orders

(* --- unit tests ------------------------------------------------------ *)

let test_of_to_int () =
  Alcotest.(check int) "roundtrip 0" 0 (Nat.to_int (Nat.of_int 0));
  Alcotest.(check int) "roundtrip 12345678901234" 12345678901234
    (Nat.to_int (Nat.of_int 12345678901234));
  Alcotest.check nat "zero is zero" Nat.zero (Nat.of_int 0);
  Alcotest.(check bool) "is_zero" true (Nat.is_zero Nat.zero);
  Alcotest.(check bool) "one not zero" false (Nat.is_zero Nat.one)

let test_negative_of_int () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (Nat.of_int (-1)))

let test_compare () =
  Alcotest.(check int) "1 < 2" (-1) (Nat.compare Nat.one Nat.two);
  Alcotest.(check int) "2 > 1" 1 (Nat.compare Nat.two Nat.one);
  Alcotest.(check int) "eq" 0 (Nat.compare secp_p secp_p);
  Alcotest.(check bool) "longer is bigger" true
    (Nat.compare (Nat.shift_left Nat.one 100) (Nat.of_int max_int) > 0)

let test_add_sub () =
  let a = Nat.of_hex "ffffffffffffffffffffffffffffffff" in
  let b = Nat.of_int 1 in
  let s = Nat.add a b in
  Alcotest.check nat "carry propagates" (Nat.shift_left Nat.one 128) s;
  Alcotest.check nat "sub undoes add" a (Nat.sub s b);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub b a))

let test_mul_known () =
  let a = Nat.of_hex "661efdf2e3b19f7c045f15" in
  let b = Nat.of_hex "db4da5f7ef412b1" in
  Alcotest.(check string) "known product"
    "0577b7cc60bdcf019100cc67528bbf03b93785"
    (nat_hex (Nat.mul a b))

let test_divmod_single_limb () =
  let a = Nat.of_hex "661efdf2e3b19f7c045f15" in
  let q, r = Nat.divmod a (Nat.of_int 97) in
  Alcotest.check nat "q*97+r = a" a (Nat.add (Nat.mul q (Nat.of_int 97)) r);
  Alcotest.(check bool) "r < 97" true (Nat.compare r (Nat.of_int 97) < 0)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero
    (fun () -> ignore (Nat.divmod Nat.one Nat.zero))

let test_shifts () =
  let a = Nat.of_hex "deadbeef" in
  Alcotest.check nat "shift roundtrip" a (Nat.shift_right (Nat.shift_left a 67) 67);
  Alcotest.check nat "shift beyond" Nat.zero (Nat.shift_right a 64);
  Alcotest.check nat "shift 0" a (Nat.shift_left a 0)

let test_bit_length () =
  Alcotest.(check int) "bitlen 0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "bitlen 1" 1 (Nat.bit_length Nat.one);
  Alcotest.(check int) "bitlen 255" 8 (Nat.bit_length (Nat.of_int 255));
  Alcotest.(check int) "bitlen 256" 9 (Nat.bit_length (Nat.of_int 256));
  Alcotest.(check int) "bitlen secp_p" 256 (Nat.bit_length secp_p)

let test_bytes_roundtrip () =
  let a = Nat.of_hex "0102030405060708090a0b0c" in
  Alcotest.check nat "bytes roundtrip" a (Nat.of_bytes_be (Nat.to_bytes_be a));
  Alcotest.(check int) "padded length" 32 (String.length (Nat.to_bytes_be ~len:32 a));
  Alcotest.check nat "padded value" a (Nat.of_bytes_be (Nat.to_bytes_be ~len:32 a));
  Alcotest.check_raises "too small len"
    (Invalid_argument "Nat.to_bytes_be: value too large for len")
    (fun () -> ignore (Nat.to_bytes_be ~len:2 a))

let test_hex_roundtrip () =
  Alcotest.(check string) "hex of p"
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"
    (nat_hex secp_p);
  Alcotest.check nat "hex roundtrip" secp_p (Nat.of_hex (nat_hex secp_p))

(* --- modular unit tests ----------------------------------------------- *)

let sc = Test_helpers.sc
let nat_of_sc = Test_helpers.nat_of_sc
let sc_check label want got = Alcotest.check nat label want (nat_of_sc got)

let test_modular_basic () =
  let n = secp_n in
  sc_check "of_int" (Nat.of_int 100) (Sc.of_int 100);
  Alcotest.(check int) "to_int" 100 (Sc.to_int (Sc.of_int 100));
  sc_check "add wrap" Nat.one (Sc.add (sc (Nat.sub n Nat.one)) (Sc.of_int 2));
  sc_check "sub wrap" (Nat.sub n Nat.two) (Sc.sub (Sc.of_int 1) (Sc.of_int 3));
  sc_check "neg" (Nat.sub n Nat.one) (Sc.neg Sc.one);
  sc_check "neg zero" Nat.zero (Sc.neg Sc.zero);
  Alcotest.check_raises "negative of_int" (Invalid_argument "Sc.of_int: out of range")
    (fun () -> ignore (Sc.of_int (-1)));
  Alcotest.check_raises "to_int past 52 bits" (Invalid_argument "Sc.to_int: out of range")
    (fun () -> ignore (Sc.to_int (sc (Nat.shift_left Nat.one 52))))

(* The reference power that the Fermat checks below rest on. *)
let test_modular_pow () =
  let m = Nat.of_int 97 in
  (* Fermat: a^96 = 1 mod 97 *)
  Alcotest.check nat "fermat" Nat.one (Ref_mod.pow m (Nat.of_int 5) (Nat.of_int 96));
  Alcotest.check nat "pow 0" Nat.one (Ref_mod.pow m (Nat.of_int 5) Nat.zero)

let test_modular_inv () =
  let x = Nat.of_hex "123456789abcdef" in
  List.iter
    (fun (name, m) ->
       let inv = Ref_mod.inv m in
       Alcotest.check nat (name ^ " x * x^-1 = 1") Nat.one (Ref_mod.mul m x (inv x));
       Alcotest.check nat (name ^ " 1^-1 = 1") Nat.one (inv Nat.one);
       Alcotest.check nat (name ^ " (m-1)^-1 = m-1") (Nat.sub m Nat.one)
         (inv (Nat.sub m Nat.one));
       Alcotest.check_raises (name ^ " inv 0") Division_by_zero
         (fun () -> ignore (inv Nat.zero));
       Alcotest.check_raises (name ^ " inv m") Division_by_zero (fun () -> ignore (inv m)))
    (("secp256k1-p", secp_p) :: curve_orders);
  let inv = Sc.inv_vartime in
  sc_check "Sc x * x^-1 = 1" Nat.one (Sc.mul (sc x) (inv (sc x)));
  sc_check "Sc 1^-1 = 1" Nat.one (inv Sc.one);
  sc_check "Sc (n-1)^-1 = n-1" (Nat.sub secp_n Nat.one) (inv (Sc.neg Sc.one));
  Alcotest.check_raises "Sc inv 0" Division_by_zero (fun () -> ignore (inv Sc.zero))

let test_modular_inv_composite () =
  let m = Nat.of_int 100 in
  (* 7 * 43 = 301 = 1 mod 100 *)
  Alcotest.check nat "inverse mod composite" (Nat.of_int 43) (Ref_mod.inv m (Nat.of_int 7));
  Alcotest.check_raises "gcd(10, 100) = 10" Division_by_zero
    (fun () -> ignore (Ref_mod.inv m (Nat.of_int 10)))

(* --- properties ------------------------------------------------------- *)

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"add associative" ~count:200
    (QCheck.triple arb_nat arb_nat arb_nat)
    (fun (a, b, c) -> Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)))

let prop_mul_comm =
  QCheck.Test.make ~name:"mul commutative" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:200
    (QCheck.triple arb_nat arb_nat arb_nat)
    (fun (a, b, c) ->
       Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"a = q*b + r with r < b" ~count:200
    (QCheck.pair arb_nat arb_small)
    (fun (a, b) ->
       QCheck.assume (not (Nat.is_zero b));
       let q, r = Nat.divmod a b in
       Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let prop_sub_inverse =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) -> Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_sqr_is_mul =
  QCheck.Test.make ~name:"sqr a = a*a" ~count:100 arb_nat
    (fun a -> Nat.equal (Nat.sqr a) (Nat.mul a a))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200 arb_nat
    (fun a -> Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

(* Exercise the limb-wise long division (divisors > 1 limb). *)
let prop_divmod_large_divisor =
  QCheck.Test.make ~name:"divmod invariant, multi-limb divisors" ~count:300
    (QCheck.pair arb_nat512 arb_nat)
    (fun (a, b) ->
       QCheck.assume (not (Nat.is_zero b));
       let q, r = Nat.divmod a b in
       Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

(* The reference power on secp256k1's prime. *)
let prop_pow_add_exponents =
  QCheck.Test.make ~name:"x^(a+b) = x^a * x^b mod p" ~count:50
    (QCheck.triple arb_small arb_small arb_small)
    (fun (x, a, b) ->
       let p = secp_p in
       let x = Nat.rem x p in
       Nat.equal
         (Ref_mod.pow p x (Nat.add a b))
         (Ref_mod.mul p (Ref_mod.pow p x a) (Ref_mod.pow p x b)))

(* The reference Euclid inverse on the primes, and [Sc.inv_vartime]. *)
let prop_inv_involutive =
  QCheck.Test.make ~name:"inv (inv x) = x mod p" ~count:50 arb_nat
    (fun x ->
       List.for_all
         (fun (_, m) ->
            let x = Nat.rem x m in
            Nat.is_zero x || Nat.equal x (Ref_mod.inv m (Ref_mod.inv m x)))
         all_moduli
       && (let k = sc x in Sc.is_zero k || Sc.equal k (Sc.inv_vartime (Sc.inv_vartime k))))

(* Fermat's little theorem as the reference for the inverses: the Euclid
   reference on both curve orders (both prime), and [Sc.inv_vartime]
   on a random scalar, a small one and the negation of a small one (its
   exact-division path). *)
let prop_inv_is_fermat =
  QCheck.Test.make ~name:"inv x = pow x (n-2)" ~count:50 (QCheck.pair arb_nat arb_small)
    (fun (x, s) ->
       List.for_all
         (fun (_, n) ->
            let x = Nat.rem x n in
            Nat.is_zero x || Nat.equal (Ref_mod.inv n x) (Ref_mod.pow n x (Nat.sub n Nat.two)))
         curve_orders
       && List.for_all
            (fun x ->
               let x = Nat.rem x secp_n in
               Nat.is_zero x
               || Nat.equal (nat_of_sc (Sc.inv_vartime (sc x)))
                    (Ref_mod.pow secp_n x (Nat.sub secp_n Nat.two)))
            [ x; Nat.shift_right s 32; Nat.sub secp_n (Nat.shift_right s 32) ])

(* --- Sc against the reference ------------------------------------------ *)

(* Scalars at the edges of the representation: 0, 1, n - 2, n - 1,
   2^255, and the limb boundaries 2^(26k) and their neighbours. *)
let sc_edges =
  let pow2 k = Nat.shift_left Nat.one k in
  [ Nat.zero; Nat.one; Nat.sub secp_n Nat.two; Nat.sub secp_n Nat.one; pow2 255 ]
  @ List.concat_map
      (fun k -> [ Nat.sub (pow2 (26 * k)) Nat.one; pow2 (26 * k); Nat.add (pow2 (26 * k)) Nat.one ])
      (List.init 9 (fun k -> k + 1))

(* A residue mod n: half the draws are edge values. *)
let arb_sc =
  QCheck.make ~print:nat_hex
    QCheck.Gen.(
      oneof
        [ map (fun x -> Nat.rem x secp_n) (gen_nat_bits 256);
          map (List.nth sc_edges) (int_bound (List.length sc_edges - 1)) ])

let prop_sc_arith =
  QCheck.Test.make ~name:"Sc arithmetic = reference" ~count:1000 ~long_factor:100
    (QCheck.pair arb_sc arb_sc)
    (fun (a, b) ->
       let n = secp_n and x = sc a and y = sc b in
       let is got want = Nat.equal (nat_of_sc got) want in
       is (Sc.add x y) (Ref_mod.add n a b)
       && is (Sc.sub x y) (Ref_mod.sub n a b)
       && is (Sc.neg x) (Ref_mod.sub n Nat.zero a)
       && is (Sc.mul x y) (Ref_mod.mul n a b)
       && Sc.equal x y = Nat.equal a b
       && Sc.is_zero x = Nat.is_zero a
       && Sc.bit_length x = Nat.bit_length a
       && List.for_all
            (fun (i, len) ->
               Sc.bits x i len
               = Nat.to_int (Nat.rem (Nat.shift_right a i) (Nat.shift_left Nat.one len)))
            [ (0, 1); (0, 26); (25, 2); (100, 17); (250, 10); (255, 1); (256, 5) ]
       && is (Sc.mul_shift x y 384)
            (Nat.shift_right (Nat.add (Nat.mul a b) (Nat.shift_left Nat.one 383)) 384))

(* The reducing decode of 32-, 40- and 64-byte strings (digests, Shamir
   coefficients, the widest product) is [Nat.rem]. *)
let prop_sc_reduce =
  QCheck.Test.make ~name:"Sc reductions = rem" ~count:1000 ~long_factor:100
    (QCheck.triple arb_nat arb_nat512 (QCheck.make (gen_nat_bits 320)))
    (fun (a, w, m) ->
       List.for_all
         (fun (len, x) ->
            let x = Nat.rem x (Nat.shift_left Nat.one (8 * len)) in
            Nat.equal (nat_of_sc (Sc.of_bytes_mod (Nat.to_bytes_be ~len x))) (Nat.rem x secp_n))
         [ (32, a); (40, m); (64, w) ])

(* Encodings, and the checked decode on hostile bytes: any length up to
   40, and values at n and around it, 2^256 - 1 and leading zeros. It
   accepts exactly the strings of at most 32 bytes below n. *)
let prop_sc_codecs =
  let n = secp_n in
  let near = [ n; Nat.add n Nat.one; Nat.sub n Nat.one; Nat.sub (Nat.shift_left Nat.one 256) Nat.one ] in
  let gen =
    QCheck.Gen.(
      oneof
        [ string_size (int_bound 40);
          map2 (fun i pad -> String.make pad '\000' ^ Nat.to_bytes_be ~len:32 (List.nth near i))
            (int_bound 3) (int_bound 2);
          map (fun x -> Nat.to_bytes_be (Nat.rem x n)) (gen_nat_bits 256) ])
  in
  QCheck.Test.make ~name:"Sc codecs = reference" ~count:1000 ~long_factor:100
    (QCheck.pair (QCheck.make ~print:(Printf.sprintf "%S") gen) arb_sc)
    (fun (s, a) ->
       let x = sc a in
       let accepts = String.length s <= 32 && Nat.compare (Nat.of_bytes_be s) n < 0 in
       (match Sc.of_bytes s with
        | None -> not accepts
        | Some k -> accepts && Nat.equal (nat_of_sc k) (Nat.of_bytes_be s))
       && String.equal (Sc.to_bytes x) (Nat.to_bytes_be ~len:32 a)
       && String.equal (Sc.to_bytes_trimmed x) (Nat.to_bytes_be a)
       && Option.fold ~none:false ~some:(Sc.equal x) (Sc.of_bytes (Sc.to_bytes x)))

(* The exact-division path of [inv_vartime] and the Fermat one meet at
   2^32: values and negations on both sides of it. *)
let test_sc_inv_paths () =
  let pow2 k = Nat.shift_left Nat.one k in
  List.iter
    (fun v ->
       List.iter
         (fun x ->
            let got = nat_of_sc (Sc.inv_vartime (sc x)) in
            Alcotest.check nat ("inverse of " ^ nat_hex x) (Ref_mod.inv secp_n x) got)
         [ v; Nat.sub secp_n v ])
    [ Nat.one; Nat.two; Nat.of_int 3; Nat.of_int 720; Nat.sub (pow2 32) Nat.one; pow2 32;
      Nat.add (pow2 32) Nat.one; Nat.of_hex "c0ffee0123456789" ]

let test_sc_reduce_edges () =
  let n = secp_n in
  let nm1 = Nat.sub n Nat.one in
  sc_check "(n-1)^2 = 1" Nat.one (Sc.mul (sc nm1) (sc nm1));
  sc_check "(n-1)+(n-1) wraps" (Nat.sub n Nat.two) (Sc.add (sc nm1) (sc nm1));
  let all_ones = String.make 64 '\xff' in
  sc_check "2^512 - 1" (Nat.rem (Nat.of_bytes_be all_ones) n) (Sc.of_bytes_mod all_ones);
  sc_check "empty" Nat.zero (Sc.of_bytes_mod "");
  Alcotest.check_raises "65 bytes" (Invalid_argument "Sc.of_bytes_mod: more than 64 bytes")
    (fun () -> ignore (Sc.of_bytes_mod (String.make 65 '\001')))

(* Boundary values through the reducing decode and [mul]: 0, 1, n-1,
   n, n+1, 2n-1, 2n, (n-1)^2 and 2^512 - 1, each against [Nat.rem]. *)
let test_boundary_residues () =
  let n = secp_n in
  let check label got x = Alcotest.check nat label (Nat.rem x n) (nat_of_sc got) in
  let nm1 = Nat.sub n Nat.one in
  List.iter
    (fun (label, x) -> check ("reduce " ^ label) (Sc.of_bytes_mod (Nat.to_bytes_be ~len:64 x)) x)
    [ ("0", Nat.zero); ("1", Nat.one); ("n-1", nm1); ("n", n); ("n+1", Nat.add n Nat.one);
      ("2n-1", Nat.add n nm1); ("2n", Nat.add n n); ("(n-1)^2", Nat.mul nm1 nm1);
      ("2^512 - 1", Nat.sub (Nat.shift_left Nat.one 512) Nat.one) ];
  check "0 * (n-1)" (Sc.mul Sc.zero (sc nm1)) Nat.zero;
  check "1 * (n-1)" (Sc.mul Sc.one (sc nm1)) nm1;
  check "(n-1)^2 mul" (Sc.mul (sc nm1) (sc nm1)) (Nat.mul nm1 nm1)

(* Every operation allocates the same minor words for the edge scalars
   as for random ones: its limb loops and arrays have one length. *)
let test_sc_alloc () =
  let rng = Dd_crypto.Drbg.create ~seed:"sc alloc" in
  let random () = Sc.of_bytes_mod (Dd_crypto.Drbg.bytes rng 32) in
  let edges = List.map sc sc_edges in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let ops =
    [ ("add", fun a b -> ignore (Sc.add a b)); ("sub", fun a b -> ignore (Sc.sub a b));
      ("neg", fun a _ -> ignore (Sc.neg a)); ("mul", fun a b -> ignore (Sc.mul a b));
      ("to_bytes", fun a _ -> ignore (Sc.to_bytes a));
      ("of_bytes_mod", fun a b -> ignore (Sc.of_bytes_mod (Sc.to_bytes a ^ Sc.to_bytes b))) ]
  in
  List.iter
    (fun (name, op) ->
       let reference = let a = random () and b = random () in words (fun () -> op a b) in
       List.iter
         (fun a ->
            List.iter
              (fun b ->
                 let w = words (fun () -> op a b) in
                 if w <> reference then
                   Alcotest.failf "%s allocates %.0f words on edge scalars, %.0f on random ones"
                     name w reference)
              (random () :: edges))
         edges)
    ops

(* --- Fe against the reference ------------------------------------------ *)

(* Residues that stress the 26-bit limb layout and the final
   conditional subtraction: 0, 1, p - 1, p - 2, 2^(26k) and its
   neighbours, and the largest residue whose low nine limbs are all
   ones. *)
let fe_edges prime =
  let pow2 k = Nat.shift_left Nat.one k in
  let around k = [ Nat.sub (pow2 k) Nat.one; pow2 k; Nat.add (pow2 k) Nat.one ] in
  let all_ones =
    Nat.add
      (Nat.shift_left (Nat.sub (Nat.shift_right prime 234) Nat.one) 234)
      (Nat.sub (pow2 234) Nat.one)
  in
  [ Nat.zero; Nat.one; Nat.sub prime Nat.one; Nat.sub prime Nat.two; all_ones ]
  @ List.concat_map (fun k -> around (26 * k)) (List.init 9 (fun k -> k + 1))
  |> List.map (fun x -> Nat.rem x prime)

(* A residue of the field, as a seed: half the draws are edge values. *)
let arb_fe_seed =
  QCheck.make ~print:nat_hex
    QCheck.Gen.(
      oneof
        [ gen_nat_bits 256;
          map2 (fun i _ -> List.nth (fe_edges secp_p) i)
            (int_bound (List.length (fe_edges secp_p) - 1)) unit ])

let fe = Test_helpers.fe
let nat_of_fe = Test_helpers.nat_of_fe

(* Run [check] with both operands reduced into the field. *)
let on_field check (a, b) = check secp_p (Nat.rem a secp_p) (Nat.rem b secp_p)

let prop_fe_arith =
  QCheck.Test.make ~name:"Fe arithmetic = reference" ~count:1000
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_field (fun fp a b ->
         let x = fe a and y = fe b and d = Fe.make () in
         let is op want = op (); Nat.equal (nat_of_fe d) want in
         is (fun () -> Fe.mul d x y) (Ref_mod.mul fp a b)
         && is (fun () -> Fe.sqr d x) (Ref_mod.mul fp a a)
         && is (fun () -> Fe.add d x y) (Ref_mod.add fp a b)
         && is (fun () -> Fe.sub d x y) (Ref_mod.sub fp a b)
         && is (fun () -> Fe.neg d x) (Ref_mod.sub fp Nat.zero a)
         && is (fun () -> Fe.select d 1 x y) a
         && is (fun () -> Fe.select d 0 x y) b
         && Fe.equal x y = Nat.equal a b
         && Fe.is_zero x = Nat.is_zero a))

(* The destination may alias either operand. *)
let prop_fe_aliasing =
  QCheck.Test.make ~name:"Fe dst may alias operand" ~count:300
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_field (fun fp a b ->
         let into op want = let x = fe a in op x; Nat.equal (nat_of_fe x) want in
         into (fun x -> Fe.mul x x (fe b)) (Ref_mod.mul fp a b)
         && into (fun x -> Fe.mul x (fe b) x) (Ref_mod.mul fp a b)
         && into (fun x -> Fe.mul x x x) (Ref_mod.mul fp a a)
         && into (fun x -> Fe.sqr x x) (Ref_mod.mul fp a a)
         && into (fun x -> Fe.sub x (fe b) x) (Ref_mod.sub fp b a)
         && into (fun x -> Fe.add x x x) (Ref_mod.add fp a a)
         && into (fun x -> Fe.neg x x) (Ref_mod.sub fp Nat.zero a)))

let prop_fe_inv_sqrt =
  QCheck.Test.make ~name:"Fe inv/sqrt = reference pow" ~count:60
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_field (fun p a _ ->
         let x = fe a and d = Fe.make () in
         Fe.inv d x;
         let inv_ok =
           Nat.equal (nat_of_fe d)
             (if Nat.is_zero a then Nat.zero else Ref_mod.pow p a (Nat.sub p Nat.two))
         in
         let want = Ref_mod.pow p a (Nat.shift_right (Nat.add p Nat.one) 2) in
         let root = Fe.sqrt d x in
         inv_ok
         && Nat.equal (nat_of_fe d) want
         && root = Nat.equal (Ref_mod.mul p want want) a))

(* Every edge residue, pairwise, plus the byte constructors on values
   at and past p. *)
let test_fe_edges () =
  let fp = secp_p in
  let edges = fe_edges secp_p in
  List.iter
    (fun a ->
       let x = fe a in
       Alcotest.check nat "roundtrip" a (nat_of_fe x);
       Alcotest.(check bool) "limbs below 2^26" true
         (Array.for_all (fun l -> l >= 0 && l < 1 lsl 26) x);
       List.iter
         (fun b ->
            let y = fe b and d = Fe.make () in
            Fe.mul d x y;
            Alcotest.check nat "mul" (Ref_mod.mul fp a b) (nat_of_fe d);
            Fe.add d x y;
            Alcotest.check nat "add" (Ref_mod.add fp a b) (nat_of_fe d);
            Fe.sub d x y;
            Alcotest.check nat "sub" (Ref_mod.sub fp a b) (nat_of_fe d))
         edges;
       let d = Fe.make () in
       Fe.sqr d x;
       Alcotest.check nat "sqr" (Ref_mod.mul fp a a) (nat_of_fe d);
       Fe.neg d x;
       Alcotest.check nat "neg" (Ref_mod.sub fp Nat.zero a) (nat_of_fe d);
       if not (Nat.is_zero a) then begin
         Fe.inv d x;
         Fe.mul d d x;
         Alcotest.check nat "a * inv a" Nat.one (nat_of_fe d)
       end)
    edges;
  let bytes x = Nat.to_bytes_be ~len:32 x in
  Alcotest.check nat "of_bytes p" Nat.zero (nat_of_fe (Fe.of_bytes (bytes secp_p)));
  let top = Nat.sub (Nat.shift_left Nat.one 256) Nat.one in
  Alcotest.check nat "of_bytes 2^256 - 1" (Nat.rem top secp_p) (nat_of_fe (Fe.of_bytes (bytes top)));
  Alcotest.check nat "of_bytes short" (Nat.of_int 7) (nat_of_fe (Fe.of_bytes "\x07"))

let () =
  Alcotest.run "bignum"
    [ ("nat-unit",
       [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
         Alcotest.test_case "negative of_int" `Quick test_negative_of_int;
         Alcotest.test_case "compare" `Quick test_compare;
         Alcotest.test_case "add/sub" `Quick test_add_sub;
         Alcotest.test_case "mul known value" `Quick test_mul_known;
         Alcotest.test_case "divmod single limb" `Quick test_divmod_single_limb;
         Alcotest.test_case "div by zero" `Quick test_div_by_zero;
         Alcotest.test_case "shifts" `Quick test_shifts;
         Alcotest.test_case "bit length" `Quick test_bit_length;
         Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
         Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip ]);
      ("modular-unit",
       [ Alcotest.test_case "basic ops" `Quick test_modular_basic;
         Alcotest.test_case "pow" `Quick test_modular_pow;
         Alcotest.test_case "inv prime" `Quick test_modular_inv;
         Alcotest.test_case "inv composite" `Quick test_modular_inv_composite;
         Alcotest.test_case "reduction edge cases" `Quick test_sc_reduce_edges;
         Alcotest.test_case "boundary residues" `Quick test_boundary_residues ]);
      ("nat-properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_add_comm; prop_add_assoc; prop_mul_comm; prop_mul_distributes;
           prop_divmod_invariant; prop_divmod_large_divisor; prop_sub_inverse;
           prop_sqr_is_mul; prop_bytes_roundtrip; prop_pow_add_exponents; prop_inv_involutive ]);
      ("scalar-field-inversion", [ QCheck_alcotest.to_alcotest prop_inv_is_fermat ]);
      ("sc-differential",
       Alcotest.test_case "inverse paths" `Quick test_sc_inv_paths
       :: Alcotest.test_case "allocation independent of value" `Quick test_sc_alloc
       :: List.map QCheck_alcotest.to_alcotest [ prop_sc_arith; prop_sc_reduce; prop_sc_codecs ]);
      ("fe-differential",
       Alcotest.test_case "edge residues" `Quick test_fe_edges
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_fe_arith; prop_fe_aliasing; prop_fe_inv_sqrt ]) ]
