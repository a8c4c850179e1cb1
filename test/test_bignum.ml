(* Unit and property tests for the arbitrary-precision naturals and
   modular arithmetic: Barrett reduction and the Euclid inverse against
   [Nat.rem] and [Modular.pow] on four 256-bit curve moduli (secp256k1's
   and P-256's, as generic inputs), and the fixed-width [Fe] kernels
   over secp256k1's prime against Barrett. *)

module Nat = Dd_bignum.Nat

let nat_hex = Test_helpers.nat_hex
module Modular = Dd_bignum.Modular
module Fe = Dd_bignum.Fe

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

let secp_p =
  Nat.of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let p256_p =
  Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"

let secp_n =
  Nat.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

let p256_n =
  Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"

let secp_p_ctx = Modular.create secp_p
let p256_p_ctx = Modular.create p256_p

(* The two curve orders: the scalar field, the one [Modular] serves in
   the protocol. *)
let curve_orders =
  [ ("secp256k1-n", secp_n, Modular.create secp_n);
    ("p256-n", p256_n, Modular.create p256_n) ]

(* All four 256-bit moduli: the two curve field primes and the two
   curve orders. *)
let all_moduli =
  ("secp256k1-p", secp_p, secp_p_ctx) :: ("p256-p", p256_p, p256_p_ctx) :: curve_orders

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

let test_modular_basic () =
  let ctx = Modular.create (Nat.of_int 97) in
  Alcotest.check nat "reduce" (Nat.of_int 3) (Modular.reduce ctx (Nat.of_int 100));
  Alcotest.check nat "add wrap" (Nat.of_int 1) (Modular.add ctx (Nat.of_int 50) (Nat.of_int 48));
  Alcotest.check nat "sub wrap" (Nat.of_int 95) (Modular.sub ctx (Nat.of_int 1) (Nat.of_int 3));
  Alcotest.check nat "neg" (Nat.of_int 96) (Modular.sub ctx Nat.zero Nat.one);
  Alcotest.check nat "neg zero" Nat.zero (Modular.sub ctx Nat.zero Nat.zero)

let test_modular_pow () =
  let ctx = Modular.create (Nat.of_int 97) in
  (* Fermat: a^96 = 1 mod 97 *)
  Alcotest.check nat "fermat" Nat.one (Modular.pow ctx (Nat.of_int 5) (Nat.of_int 96));
  Alcotest.check nat "pow 0" Nat.one (Modular.pow ctx (Nat.of_int 5) Nat.zero)

let test_modular_inv () =
  let x = Nat.of_hex "123456789abcdef" in
  List.iter
    (fun (name, m, ctx) ->
       let inv = Modular.inv_vartime ctx in
       Alcotest.check nat (name ^ " x * x^-1 = 1") Nat.one (Modular.mul ctx x (inv x));
       Alcotest.check nat (name ^ " 1^-1 = 1") Nat.one (inv Nat.one);
       Alcotest.check nat (name ^ " (m-1)^-1 = m-1") (Nat.sub m Nat.one)
         (inv (Nat.sub m Nat.one));
       Alcotest.check_raises (name ^ " inv 0") Division_by_zero
         (fun () -> ignore (inv Nat.zero));
       Alcotest.check_raises (name ^ " inv m") Division_by_zero (fun () -> ignore (inv m)))
    (("secp256k1-p", secp_p, secp_p_ctx) :: curve_orders)

let test_modular_inv_composite () =
  let ctx = Modular.create (Nat.of_int 100) in
  (* 7 * 43 = 301 = 1 mod 100 *)
  Alcotest.check nat "inverse mod composite" (Nat.of_int 43)
    (Modular.inv_vartime ctx (Nat.of_int 7));
  Alcotest.check_raises "gcd(10, 100) = 10" Division_by_zero
    (fun () -> ignore (Modular.inv_vartime ctx (Nat.of_int 10)))

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

(* The only reduction path: on every curve modulus, [reduce] of a
   512-bit input and [mul]/[sqr] of two residues agree with long
   division. *)
let prop_barrett_matches_divmod =
  QCheck.Test.make ~name:"Barrett reduce = rem" ~count:500
    (QCheck.pair arb_nat512 arb_nat512)
    (fun (x, y) ->
       List.for_all
         (fun (_, m, ctx) ->
            let a = Modular.reduce ctx x and b = Modular.reduce ctx y in
            Nat.equal a (Nat.rem x m)
            && Nat.equal (Modular.mul ctx a b) (Nat.rem (Nat.mul a b) m)
            && Nat.equal (Modular.sqr ctx a) (Nat.rem (Nat.mul a a) m))
         all_moduli)

let prop_pow_add_exponents =
  QCheck.Test.make ~name:"x^(a+b) = x^a * x^b mod p" ~count:50
    (QCheck.triple arb_small arb_small arb_small)
    (fun (x, a, b) ->
       let ctx = Modular.create secp_p in
       let x = Modular.reduce ctx x in
       Nat.equal
         (Modular.pow ctx x (Nat.add a b))
         (Modular.mul ctx (Modular.pow ctx x a) (Modular.pow ctx x b)))

let prop_inv_involutive =
  QCheck.Test.make ~name:"inv (inv x) = x mod p" ~count:50 arb_nat
    (fun x ->
       List.for_all
         (fun (_, _, ctx) ->
            let x = Modular.reduce ctx x in
            Nat.is_zero x
            || Nat.equal x (Modular.inv_vartime ctx (Modular.inv_vartime ctx x)))
         (("secp256k1-p", secp_p, secp_p_ctx) :: curve_orders))

(* Fermat's little theorem as the reference for the Euclid inverse, on
   both curve orders (both prime). *)
let prop_inv_is_fermat =
  QCheck.Test.make ~name:"inv x = pow x (n-2)" ~count:50 arb_nat
    (fun x ->
       List.for_all
         (fun (_, n, ctx) ->
            let x = Modular.reduce ctx x in
            Nat.is_zero x
            || Nat.equal (Modular.inv_vartime ctx x) (Modular.pow ctx x (Nat.sub n Nat.two)))
         curve_orders)

(* Exercise the limb-wise long division (divisors > 1 limb). *)
let prop_divmod_large_divisor =
  QCheck.Test.make ~name:"divmod invariant, multi-limb divisors" ~count:300
    (QCheck.pair arb_nat512 arb_nat)
    (fun (a, b) ->
       QCheck.assume (not (Nat.is_zero b));
       let q, r = Nat.divmod a b in
       Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

(* Boundary residues on every modulus: 0, 1, m-1 (the residue
   extremes), m, m+1, 2m-1, 2m (just above the modulus, exercising the
   conditional-subtract tail), and (m-1)^2, 2^512 - 1 and 2^600 (the
   widest Barrett input and past it) — fed through [reduce], [mul] and
   [sqr], each against [Nat.rem]. *)
let test_boundary_residues () =
  List.iter
    (fun (name, m, ctx) ->
       let check label got x =
         Alcotest.check nat (Printf.sprintf "%s %s" name label) (Nat.rem x m) got
       in
       let mm1 = Nat.sub m Nat.one in
       let pow2 k = Nat.shift_left Nat.one k in
       List.iter
         (fun (label, x) -> check ("reduce " ^ label) (Modular.reduce ctx x) x)
         [ ("0", Nat.zero); ("1", Nat.one); ("m-1", mm1); ("m", m);
           ("m+1", Nat.add m Nat.one); ("2m-1", Nat.add m mm1); ("2m", Nat.add m m);
           ("(m-1)^2", Nat.mul mm1 mm1); ("2^512 - 1", Nat.sub (pow2 512) Nat.one);
           ("2^600", pow2 600) ];
       check "0 * (m-1)" (Modular.mul ctx Nat.zero mm1) Nat.zero;
       check "1 * (m-1)" (Modular.mul ctx Nat.one mm1) mm1;
       check "(m-1)^2 mul" (Modular.mul ctx mm1 mm1) (Nat.mul mm1 mm1);
       check "(m-1)^2 sqr" (Modular.sqr ctx mm1) (Nat.mul mm1 mm1);
       (* an operand at or above m is out of contract but still reduces *)
       let mp2 = Nat.add m Nat.two in
       check "(m+2) * 2" (Modular.mul ctx mp2 Nat.two) (Nat.mul mp2 Nat.two);
       check "sqr 0" (Modular.sqr ctx Nat.zero) Nat.zero;
       check "sqr 1" (Modular.sqr ctx Nat.one) Nat.one)
    all_moduli

let test_barrett_edges () =
  (* single-limb fast path *)
  let ctx3 = Modular.create (Nat.of_int 3) in
  Alcotest.check nat "big mod 3" (Nat.of_int 1)
    (Modular.reduce ctx3 (Nat.of_hex "ffffffffffffffffffffffffffffffffffffffff1"));
  (* (p-1)^2 mod p = 1, the largest product of residues *)
  let ctx = Modular.create secp_p in
  let pm1 = Nat.sub secp_p Nat.one in
  Alcotest.check nat "(p-1)^2 = 1" Nat.one (Modular.reduce ctx (Nat.mul pm1 pm1));
  Alcotest.check nat "(p-1)+(p-1) wraps" (Nat.sub secp_p Nat.two) (Modular.add ctx pm1 pm1);
  (* inputs beyond the Barrett range fall back to long division *)
  let huge = Nat.shift_left Nat.one 1000 in
  Alcotest.check nat "beyond-range reduce" (Nat.rem huge (Nat.of_int 3))
    (Modular.reduce ctx3 huge);
  Alcotest.check nat "matches rem" (Nat.rem huge secp_p) (Modular.reduce ctx huge);
  Alcotest.check_raises "modulus < 2" (Invalid_argument "Modular.create: modulus < 2")
    (fun () -> ignore (Modular.create Nat.one));
  (* tiny exponents *)
  let x = Nat.of_hex "abcdef" in
  Alcotest.check nat "x^1" x (Modular.pow ctx x Nat.one);
  Alcotest.check nat "x^2 = sqr" (Modular.sqr ctx x) (Modular.pow ctx x Nat.two)

(* --- Fe against the Barrett reference ------------------------------- *)

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

(* Run [check] with both operands reduced into the field. *)
let on_field check (a, b) =
  check secp_p_ctx (Modular.reduce secp_p_ctx a) (Modular.reduce secp_p_ctx b)

let prop_fe_arith =
  QCheck.Test.make ~name:"Fe arithmetic = Barrett" ~count:1000
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_field (fun fp a b ->
         let x = Fe.of_nat a and y = Fe.of_nat b and d = Fe.make () in
         let is op want = op (); Nat.equal (Fe.to_nat d) want in
         is (fun () -> Fe.mul d x y) (Modular.mul fp a b)
         && is (fun () -> Fe.sqr d x) (Modular.mul fp a a)
         && is (fun () -> Fe.add d x y) (Modular.add fp a b)
         && is (fun () -> Fe.sub d x y) (Modular.sub fp a b)
         && is (fun () -> Fe.neg d x) (Modular.sub fp Nat.zero a)
         && is (fun () -> Fe.select d 1 x y) a
         && is (fun () -> Fe.select d 0 x y) b
         && Fe.equal x y = Nat.equal a b
         && Fe.is_zero x = Nat.is_zero a))

(* The destination may alias either operand. *)
let prop_fe_aliasing =
  QCheck.Test.make ~name:"Fe dst may alias operand" ~count:300
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_field (fun fp a b ->
         let into op want = let x = Fe.of_nat a in op x; Nat.equal (Fe.to_nat x) want in
         into (fun x -> Fe.mul x x (Fe.of_nat b)) (Modular.mul fp a b)
         && into (fun x -> Fe.mul x (Fe.of_nat b) x) (Modular.mul fp a b)
         && into (fun x -> Fe.mul x x x) (Modular.mul fp a a)
         && into (fun x -> Fe.sqr x x) (Modular.mul fp a a)
         && into (fun x -> Fe.sub x (Fe.of_nat b) x) (Modular.sub fp b a)
         && into (fun x -> Fe.add x x x) (Modular.add fp a a)
         && into (fun x -> Fe.neg x x) (Modular.sub fp Nat.zero a)))

let prop_fe_inv_sqrt =
  QCheck.Test.make ~name:"Fe inv/sqrt = Barrett pow" ~count:60
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_field (fun fp a _ ->
         let p = Modular.modulus fp in
         let x = Fe.of_nat a and d = Fe.make () in
         Fe.inv d x;
         let inv_ok =
           Nat.equal (Fe.to_nat d)
             (if Nat.is_zero a then Nat.zero else Modular.pow fp a (Nat.sub p Nat.two))
         in
         let want = Modular.pow fp a (Nat.shift_right (Nat.add p Nat.one) 2) in
         let root = Fe.sqrt d x in
         inv_ok
         && Nat.equal (Fe.to_nat d) want
         && root = Nat.equal (Modular.mul fp want want) a))

(* Every edge residue, pairwise, plus conversions of out-of-range
   naturals. *)
let test_fe_edges () =
  let fp = secp_p_ctx in
  Alcotest.check nat "prime" secp_p Fe.prime;
  let edges = fe_edges secp_p in
  List.iter
    (fun a ->
       let x = Fe.of_nat a in
       Alcotest.check nat "roundtrip" a (Fe.to_nat x);
       Alcotest.(check bool) "limbs below 2^26" true
         (Array.for_all (fun l -> l >= 0 && l < 1 lsl 26) x);
       List.iter
         (fun b ->
            let y = Fe.of_nat b and d = Fe.make () in
            Fe.mul d x y;
            Alcotest.check nat "mul" (Modular.mul fp a b) (Fe.to_nat d);
            Fe.add d x y;
            Alcotest.check nat "add" (Modular.add fp a b) (Fe.to_nat d);
            Fe.sub d x y;
            Alcotest.check nat "sub" (Modular.sub fp a b) (Fe.to_nat d))
         edges;
       let d = Fe.make () in
       Fe.sqr d x;
       Alcotest.check nat "sqr" (Modular.mul fp a a) (Fe.to_nat d);
       Fe.neg d x;
       Alcotest.check nat "neg" (Modular.sub fp Nat.zero a) (Fe.to_nat d);
       if not (Nat.is_zero a) then begin
         Fe.inv d x;
         Fe.mul d d x;
         Alcotest.check nat "a * inv a" Nat.one (Fe.to_nat d)
       end)
    edges;
  Alcotest.check nat "of_nat p" Nat.zero (Fe.to_nat (Fe.of_nat secp_p));
  Alcotest.check nat "of_nat 2^300"
    (Modular.reduce fp (Nat.shift_left Nat.one 300))
    (Fe.to_nat (Fe.of_nat (Nat.shift_left Nat.one 300)))

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
         Alcotest.test_case "Barrett edge cases" `Quick test_barrett_edges;
         Alcotest.test_case "boundary residues" `Quick test_boundary_residues ]);
      ("nat-properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_add_comm; prop_add_assoc; prop_mul_comm; prop_mul_distributes;
           prop_divmod_invariant; prop_divmod_large_divisor; prop_sub_inverse;
           prop_sqr_is_mul; prop_bytes_roundtrip;
           prop_barrett_matches_divmod; prop_pow_add_exponents; prop_inv_involutive ]);
      ("scalar-field-inversion", [ QCheck_alcotest.to_alcotest prop_inv_is_fermat ]);
      ("fe-differential",
       Alcotest.test_case "edge residues" `Quick test_fe_edges
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_fe_arith; prop_fe_aliasing; prop_fe_inv_sqrt ]) ]
