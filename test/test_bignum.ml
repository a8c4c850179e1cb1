(* Unit and property tests for the arbitrary-precision naturals and
   modular arithmetic, including differential suites pitting the
   specialized curve-prime reductions against the Barrett reference. *)

module Nat = Dd_bignum.Nat
module Modular = Dd_bignum.Modular
module Fe = Dd_bignum.Fe

let nat = Alcotest.testable Nat.pp Nat.equal

(* --- generators ------------------------------------------------------ *)

let gen_nat_bits bits =
  QCheck.Gen.(
    map
      (fun bytes ->
         Nat.of_bytes_be (String.init (bits / 8 + 1) (fun i -> Char.chr (List.nth bytes i))))
      (list_repeat (bits / 8 + 1) (int_range 0 255)))

let arb_nat = QCheck.make ~print:Nat.to_decimal (gen_nat_bits 256)
let arb_small = QCheck.make ~print:Nat.to_decimal (gen_nat_bits 64)
let arb_nat512 = QCheck.make ~print:Nat.to_decimal (gen_nat_bits 512)

let secp_p =
  Nat.of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

let p256_p =
  Nat.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"

let secp_n =
  Nat.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

let p256_n =
  Nat.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"

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
  let a = Nat.of_decimal "123456789123456789123456789" in
  let b = Nat.of_decimal "987654321987654321" in
  Alcotest.(check string) "known product"
    "121932631356500531469135800347203169112635269"
    (Nat.to_decimal (Nat.mul a b))

let test_divmod_single_limb () =
  let a = Nat.of_decimal "123456789123456789123456789" in
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
    (Nat.to_hex secp_p);
  Alcotest.check nat "hex roundtrip" secp_p (Nat.of_hex (Nat.to_hex secp_p))

let test_decimal () =
  Alcotest.(check string) "decimal small" "1234567" (Nat.to_decimal (Nat.of_int 1234567));
  Alcotest.(check string) "decimal zero" "0" (Nat.to_decimal Nat.zero);
  let big = "115792089237316195423570985008687907853269984665640564039457584007908834671663" in
  Alcotest.(check string) "decimal of p" big (Nat.to_decimal secp_p);
  Alcotest.check nat "decimal roundtrip" secp_p (Nat.of_decimal big)

(* --- modular unit tests ----------------------------------------------- *)

let test_modular_basic () =
  let ctx = Modular.create (Nat.of_int 97) in
  Alcotest.check nat "reduce" (Nat.of_int 3) (Modular.reduce ctx (Nat.of_int 100));
  Alcotest.check nat "add wrap" (Nat.of_int 1) (Modular.add ctx (Nat.of_int 50) (Nat.of_int 48));
  Alcotest.check nat "sub wrap" (Nat.of_int 95) (Modular.sub ctx (Nat.of_int 1) (Nat.of_int 3));
  Alcotest.check nat "neg" (Nat.of_int 96) (Modular.neg ctx Nat.one);
  Alcotest.check nat "neg zero" Nat.zero (Modular.neg ctx Nat.zero)

let test_modular_pow () =
  let ctx = Modular.create (Nat.of_int 97) in
  (* Fermat: a^96 = 1 mod 97 *)
  Alcotest.check nat "fermat" Nat.one (Modular.pow ctx (Nat.of_int 5) (Nat.of_int 96));
  Alcotest.check nat "pow 0" Nat.one (Modular.pow ctx (Nat.of_int 5) Nat.zero)

let test_modular_inv () =
  let ctx = Modular.create secp_p in
  let x = Nat.of_hex "123456789abcdef" in
  Alcotest.check nat "x * x^-1 = 1" Nat.one (Modular.mul ctx x (Modular.inv ctx x));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Modular.inv ctx Nat.zero))

let test_modular_inv_composite () =
  let ctx = Modular.create ~prime:false (Nat.of_int 100) in
  (* 7 * 43 = 301 = 1 mod 100 *)
  Alcotest.check nat "inverse mod composite" (Nat.of_int 43) (Modular.inv ctx (Nat.of_int 7))

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

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:100 arb_nat
    (fun a -> Nat.equal a (Nat.of_decimal (Nat.to_decimal a)))

let prop_barrett_matches_divmod =
  QCheck.Test.make ~name:"Barrett reduce = rem" ~count:200 (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
       let ctx = Modular.create secp_p in
       let a' = Modular.reduce ctx a and b' = Modular.reduce ctx b in
       Nat.equal (Modular.mul ctx a' b') (Nat.rem (Nat.mul a' b') secp_p))

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
       let ctx = Modular.create secp_p in
       let x = Modular.reduce ctx x in
       QCheck.assume (not (Nat.is_zero x));
       Nat.equal x (Modular.inv ctx (Modular.inv ctx x)))

(* --- differential: specialized reductions vs Barrett ----------------- *)

let fast_secp = Modular.create secp_p
let slow_secp = Modular.create ~fast:false secp_p
let fast_p256 = Modular.create p256_p
let slow_p256 = Modular.create ~fast:false p256_p
let fast_secp_n = Modular.create secp_n
let slow_secp_n = Modular.create ~fast:false secp_n
let fast_p256_n = Modular.create p256_n
let slow_p256_n = Modular.create ~fast:false p256_n

(* All four 256-bit moduli: the two curve field primes and the two
   curve orders, Montgomery throughout on the fast side (the group runs
   its base field on Fe, pinned by "fe-differential" below). The slow
   context is always pure Barrett. *)
let all_moduli =
  [ ("secp256k1-p", secp_p, fast_secp, slow_secp);
    ("p256-p", p256_p, fast_p256, slow_p256);
    ("secp256k1-n", secp_n, fast_secp_n, slow_secp_n);
    ("p256-n", p256_n, fast_p256_n, slow_p256_n) ]

let prop_fast_reduce_secp =
  QCheck.Test.make ~name:"secp256k1 fast reduce = Barrett (512-bit inputs)"
    ~count:1000 arb_nat512
    (fun x -> Nat.equal (Modular.reduce fast_secp x) (Modular.reduce slow_secp x))

let prop_fast_reduce_p256 =
  QCheck.Test.make ~name:"p256 fast reduce = Barrett (512-bit inputs)"
    ~count:1000 arb_nat512
    (fun x -> Nat.equal (Modular.reduce fast_p256 x) (Modular.reduce slow_p256 x))

let prop_fast_mul_secp =
  QCheck.Test.make ~name:"secp256k1 fast mul = Barrett mul" ~count:1000
    (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
       let a = Modular.reduce slow_secp a and b = Modular.reduce slow_secp b in
       Nat.equal (Modular.mul fast_secp a b) (Modular.mul slow_secp a b))

let prop_fast_mul_p256 =
  QCheck.Test.make ~name:"p256 fast mul = Barrett mul" ~count:1000
    (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
       let a = Modular.reduce slow_p256 a and b = Modular.reduce slow_p256 b in
       Nat.equal (Modular.mul fast_p256 a b) (Modular.mul slow_p256 a b))

(* Montgomery vs Barrett: the curve orders' standard mul/sqr route
   through the Montgomery domain, so these pin REDC (and the dedicated
   squaring kernel) against the Barrett reference. *)
let prop_mont_mul_orders =
  QCheck.Test.make ~name:"curve-order Montgomery mul/sqr = Barrett" ~count:1000
    (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
       List.for_all
         (fun (_, _, fast, slow) ->
            let a = Modular.reduce slow a and b = Modular.reduce slow b in
            Nat.equal (Modular.mul fast a b) (Modular.mul slow a b)
            && Nat.equal (Modular.sqr fast a) (Modular.mul slow a a))
         [ List.nth all_moduli 2; List.nth all_moduli 3 ])

(* Aliasing: [mul ctx a a] must agree with the dedicated squaring
   kernel on every strategy. *)
let prop_sqr_aliasing =
  QCheck.Test.make ~name:"mul a a = sqr a (all strategies)" ~count:500 arb_nat
    (fun a ->
       List.for_all
         (fun (_, _, fast, slow) ->
            let r = Modular.reduce slow a in
            Nat.equal (Modular.mul fast r r) (Modular.sqr fast r)
            && Nat.equal (Modular.mul slow r r) (Modular.sqr slow r)
            && Nat.equal (Modular.sqr fast r) (Modular.sqr slow r))
         all_moduli)

(* The limb kernels against the immutable Nat operations they mirror. *)
let prop_limb_kernels =
  QCheck.Test.make ~name:"limb kernels match Nat ops" ~count:500
    (QCheck.pair arb_nat arb_nat)
    (fun (a, b) ->
       let bl = Array.make 20 0 in
       let nb = Nat.to_limbs_into b bl in
       let dst = Array.make 44 0 in
       let na = Nat.to_limbs_into a dst in
       let nadd = Nat.add_into dst na bl nb in
       let ok_add = Nat.equal (Nat.of_limbs dst nadd) (Nat.add a b) in
       let nsub = Nat.sub_into dst nadd bl nb in
       let ok_sub = Nat.equal (Nat.of_limbs dst nsub) a in
       let nam = Nat.addmul1_into dst nsub bl nb ~shift:1 977 in
       let ok_addmul =
         Nat.equal (Nat.of_limbs dst nam)
           (Nat.add a (Nat.shift_left (Nat.mul b (Nat.of_int 977)) Nat.base_bits))
       in
       let prod = Array.make 40 0 in
       let np = Nat.mul_into prod a b in
       let ok_mul = Nat.equal (Nat.of_limbs prod np) (Nat.mul a b) in
       ok_add && ok_sub && ok_addmul && ok_mul)

(* Exercise the limb-wise long division (divisors > 1 limb). *)
let prop_divmod_large_divisor =
  QCheck.Test.make ~name:"divmod invariant, multi-limb divisors" ~count:300
    (QCheck.pair arb_nat512 arb_nat)
    (fun (a, b) ->
       QCheck.assume (not (Nat.is_zero b));
       let q, r = Nat.divmod a b in
       Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let test_fast_reduction_edges () =
  Alcotest.(check string) "odd non-curve modulus gets Montgomery" "montgomery"
    (Modular.reduction_name (Modular.create (Nat.of_int 97)));
  Alcotest.(check string) "even modulus stays Barrett" "barrett"
    (Modular.reduction_name (Modular.create ~prime:false (Nat.of_int 100)));
  Alcotest.(check string) "~fast:false forces Barrett" "barrett"
    (Modular.reduction_name slow_secp_n);
  Alcotest.(check string) "curve order gets Montgomery" "montgomery"
    (Modular.reduction_name fast_secp_n);
  List.iter
    (fun (name, prime, fast, slow) ->
       let check label x =
         Alcotest.check nat
           (Printf.sprintf "%s %s" name label)
           (Modular.reduce slow x) (Modular.reduce fast x)
       in
       let pm1 = Nat.sub prime Nat.one in
       check "(p-1)^2" (Nat.mul pm1 pm1);
       check "p itself" prime;
       check "2p" (Nat.add prime prime);
       check "2^512 - 1" (Nat.sub (Nat.shift_left Nat.one 512) Nat.one);
       check "2^600 falls back" (Nat.shift_left Nat.one 600);
       (* out-of-contract mul operands (>= p) still reduce correctly *)
       Alcotest.check nat
         (Printf.sprintf "%s unreduced mul operands" name)
         (Modular.mul slow (Modular.reduce slow (Nat.add prime Nat.two)) Nat.two)
         (Modular.mul fast (Nat.add prime Nat.two) Nat.two))
    [ ("secp256k1", secp_p, fast_secp, slow_secp);
      ("p256", p256_p, fast_p256, slow_p256) ]

(* Boundary residues through every strategy: 0, 1, m-1 (the residue
   extremes), and m, m+1, 2m-1 (just above the modulus, exercising the
   conditional-subtract tail of each reduction) — fed through [reduce],
   [mul] and [sqr]. *)
let test_boundary_residues () =
  List.iter
    (fun (name, m, fast, slow) ->
       let check label got want =
         Alcotest.check nat (Printf.sprintf "%s %s" name label) want got
       in
       let mm1 = Nat.sub m Nat.one in
       check "reduce 0" (Modular.reduce fast Nat.zero) Nat.zero;
       check "reduce 1" (Modular.reduce fast Nat.one) Nat.one;
       check "reduce m-1" (Modular.reduce fast mm1) mm1;
       check "reduce m" (Modular.reduce fast m) Nat.zero;
       check "reduce m+1" (Modular.reduce fast (Nat.add m Nat.one)) Nat.one;
       check "reduce 2m-1" (Modular.reduce fast (Nat.add m mm1)) mm1;
       check "0 * (m-1)" (Modular.mul fast Nat.zero mm1) Nat.zero;
       check "1 * (m-1)" (Modular.mul fast Nat.one mm1) mm1;
       check "(m-1)^2 mul" (Modular.mul fast mm1 mm1)
         (Modular.mul slow mm1 mm1);
       check "(m-1)^2 sqr" (Modular.sqr fast mm1) (Modular.mul slow mm1 mm1);
       check "sqr 0" (Modular.sqr fast Nat.zero) Nat.zero;
       check "sqr 1" (Modular.sqr fast Nat.one) Nat.one)
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

let fe_fields =
  [ ("secp256k1", Fe.secp256k1, slow_secp); ("p256", Fe.p256, slow_p256) ]

(* A residue of either field, as a seed: half the draws are edge values. *)
let arb_fe_seed =
  QCheck.make ~print:Nat.to_decimal
    QCheck.Gen.(
      oneof
        [ gen_nat_bits 256;
          map2 (fun i _ -> List.nth (fe_edges secp_p @ fe_edges p256_p) i)
            (int_bound (2 * List.length (fe_edges secp_p) - 1)) unit ])

(* Run [check] on every field with both operands reduced into it. *)
let on_fields check (a, b) =
  List.for_all
    (fun (_, f, slow) -> check f slow (Modular.reduce slow a) (Modular.reduce slow b))
    fe_fields

let prop_fe_arith =
  QCheck.Test.make ~name:"Fe arithmetic = Barrett" ~count:1000
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_fields (fun f slow a b ->
         let x = Fe.of_nat f a and y = Fe.of_nat f b and d = Fe.make () in
         let is op want = op (); Nat.equal (Fe.to_nat d) want in
         is (fun () -> Fe.mul f d x y) (Modular.mul slow a b)
         && is (fun () -> Fe.sqr f d x) (Modular.mul slow a a)
         && is (fun () -> Fe.add f d x y) (Modular.add slow a b)
         && is (fun () -> Fe.sub f d x y) (Modular.sub slow a b)
         && is (fun () -> Fe.neg f d x) (Modular.neg slow a)
         && is (fun () -> Fe.select d 1 x y) a
         && is (fun () -> Fe.select d 0 x y) b
         && Fe.equal x y = Nat.equal a b
         && Fe.is_zero x = Nat.is_zero a))

(* The destination may alias either operand. *)
let prop_fe_aliasing =
  QCheck.Test.make ~name:"Fe dst may alias operand" ~count:300
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_fields (fun f slow a b ->
         let into op want = let x = Fe.of_nat f a in op x; Nat.equal (Fe.to_nat x) want in
         into (fun x -> Fe.mul f x x (Fe.of_nat f b)) (Modular.mul slow a b)
         && into (fun x -> Fe.mul f x (Fe.of_nat f b) x) (Modular.mul slow a b)
         && into (fun x -> Fe.mul f x x x) (Modular.mul slow a a)
         && into (fun x -> Fe.sqr f x x) (Modular.mul slow a a)
         && into (fun x -> Fe.sub f x (Fe.of_nat f b) x) (Modular.sub slow b a)
         && into (fun x -> Fe.add f x x x) (Modular.add slow a a)
         && into (fun x -> Fe.neg f x x) (Modular.neg slow a)))

let prop_fe_inv_sqrt =
  QCheck.Test.make ~name:"Fe inv/sqrt = Barrett pow" ~count:60
    (QCheck.pair arb_fe_seed arb_fe_seed)
    (on_fields (fun f slow a _ ->
         let p = Modular.modulus slow in
         let x = Fe.of_nat f a and d = Fe.make () in
         Fe.inv f d x;
         let inv_ok =
           Nat.equal (Fe.to_nat d)
             (if Nat.is_zero a then Nat.zero else Modular.pow slow a (Nat.sub p Nat.two))
         in
         let want = Modular.pow slow a (Nat.shift_right (Nat.add p Nat.one) 2) in
         let root = Fe.sqrt f d x in
         inv_ok
         && Nat.equal (Fe.to_nat d) want
         && root = Nat.equal (Modular.mul slow want want) a))

(* Every edge residue on both fields, pairwise, plus conversions of
   out-of-range naturals. *)
let test_fe_edges () =
  List.iter
    (fun (name, f, slow) ->
       let p = Modular.modulus slow in
       let edges = fe_edges p in
       List.iter
         (fun a ->
            let x = Fe.of_nat f a in
            Alcotest.check nat (name ^ " roundtrip") a (Fe.to_nat x);
            Alcotest.(check bool) (name ^ " limbs below 2^26") true
              (Array.for_all (fun l -> l >= 0 && l < 1 lsl 26) x);
            List.iter
              (fun b ->
                 let y = Fe.of_nat f b and d = Fe.make () in
                 Fe.mul f d x y;
                 Alcotest.check nat (name ^ " mul") (Modular.mul slow a b) (Fe.to_nat d);
                 Fe.add f d x y;
                 Alcotest.check nat (name ^ " add") (Modular.add slow a b) (Fe.to_nat d);
                 Fe.sub f d x y;
                 Alcotest.check nat (name ^ " sub") (Modular.sub slow a b) (Fe.to_nat d))
              edges;
            let d = Fe.make () in
            Fe.sqr f d x;
            Alcotest.check nat (name ^ " sqr") (Modular.mul slow a a) (Fe.to_nat d);
            Fe.neg f d x;
            Alcotest.check nat (name ^ " neg") (Modular.neg slow a) (Fe.to_nat d);
            if not (Nat.is_zero a) then begin
              Fe.inv f d x;
              Fe.mul f d d x;
              Alcotest.check nat (name ^ " a * inv a") Nat.one (Fe.to_nat d)
            end)
         edges;
       Alcotest.check nat (name ^ " of_nat p") Nat.zero (Fe.to_nat (Fe.of_nat f p));
       Alcotest.check nat (name ^ " of_nat 2^300")
         (Modular.reduce slow (Nat.shift_left Nat.one 300))
         (Fe.to_nat (Fe.of_nat f (Nat.shift_left Nat.one 300)));
       Alcotest.(check bool) (name ^ " of_prime") true (Fe.of_prime p = Some f))
    fe_fields;
  Alcotest.(check bool) "of_prime on another modulus" true (Fe.of_prime secp_n = None)

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
         Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
         Alcotest.test_case "decimal" `Quick test_decimal ]);
      ("modular-unit",
       [ Alcotest.test_case "basic ops" `Quick test_modular_basic;
         Alcotest.test_case "pow" `Quick test_modular_pow;
         Alcotest.test_case "inv prime" `Quick test_modular_inv;
         Alcotest.test_case "inv composite" `Quick test_modular_inv_composite;
         Alcotest.test_case "Barrett edge cases" `Quick test_barrett_edges;
         Alcotest.test_case "fast reduction edge cases" `Quick test_fast_reduction_edges;
         Alcotest.test_case "boundary residues" `Quick test_boundary_residues ]);
      ("nat-properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_add_comm; prop_add_assoc; prop_mul_comm; prop_mul_distributes;
           prop_divmod_invariant; prop_divmod_large_divisor; prop_sub_inverse;
           prop_sqr_is_mul; prop_bytes_roundtrip; prop_decimal_roundtrip;
           prop_barrett_matches_divmod; prop_pow_add_exponents; prop_inv_involutive ]);
      ("reduction-differential",
       List.map QCheck_alcotest.to_alcotest
         [ prop_fast_reduce_secp; prop_fast_reduce_p256;
           prop_fast_mul_secp; prop_fast_mul_p256;
           prop_mont_mul_orders; prop_sqr_aliasing;
           prop_limb_kernels ]);
      ("fe-differential",
       Alcotest.test_case "edge residues" `Quick test_fe_edges
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_fe_arith; prop_fe_aliasing; prop_fe_inv_sqrt ]) ]
