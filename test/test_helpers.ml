(* Helpers the test executables share. *)

module Sc = Dd_bignum.Sc
module Fe = Dd_bignum.Fe

(* Hex of a natural's big-endian bytes, for messages and known answers. *)
let nat_hex ?len a = Dd_crypto.Sha256.hex_of_string (Nat.to_bytes_be ?len a)

(* secp256k1's group order n and field prime p, as reference naturals. *)
let order = Nat.of_hex "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
let prime = Nat.of_hex "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"

(* Arithmetic mod [m] on naturals, the reference the fixed-width [Sc]
   and [Fe] are checked against: long division for every reduction,
   square-and-multiply for powers, extended Euclid for the inverse. *)
module Ref_mod = struct
  let add m a b = Nat.rem (Nat.add a b) m
  let sub m a b = Nat.rem (Nat.sub (Nat.add (Nat.rem a m) m) (Nat.rem b m)) m
  let mul m a b = Nat.rem (Nat.mul a b) m

  let pow m b e =
    let r = ref (Nat.rem Nat.one m) in
    for i = Nat.bit_length e - 1 downto 0 do
      r := mul m !r !r;
      if Nat.testbit e i then r := mul m !r b
    done;
    !r

  (* Extended Euclid on (m, a), tracking a's Bezout coefficient as a
     (negative?, magnitude) pair; raises [Division_by_zero] unless a is
     invertible mod m. *)
  let inv m a =
    let a = Nat.rem a m in
    if Nat.is_zero a then raise Division_by_zero;
    let rec go r0 r1 (s0_neg, s0) (s1_neg, s1) =
      if Nat.is_zero r1 then begin
        if not (Nat.equal r0 Nat.one) then raise Division_by_zero;
        if s0_neg then Nat.sub m (Nat.rem s0 m) else Nat.rem s0 m
      end
      else begin
        let q, r2 = Nat.divmod r0 r1 in
        let qs1 = Nat.mul q s1 in
        let s2 =
          if s0_neg = s1_neg then
            if Nat.compare s0 qs1 >= 0 then (s0_neg, Nat.sub s0 qs1) else (not s0_neg, Nat.sub qs1 s0)
          else (s0_neg, Nat.add s0 qs1)
        in
        go r1 r2 (s1_neg, s1) s2
      end
    in
    go m a (false, Nat.zero) (false, Nat.one)
end

(* A natural as a scalar (reduced mod n by the reference) and back, and
   likewise a field element mod p. *)
let sc a = Option.get (Sc.of_bytes (Nat.to_bytes_be ~len:32 (Nat.rem a order)))
let nat_of_sc k = Nat.of_bytes_be (Sc.to_bytes k)
let fe a = Fe.of_bytes (Nat.to_bytes_be ~len:32 (Nat.rem a prime))
let nat_of_fe x = Nat.of_bytes_be (Fe.to_bytes x)

(* One payload framed as it goes on the wire. *)
let frame payload =
  let buf = Buffer.create (String.length payload + 4) in
  Dd_serve.Frame.encode_into buf payload;
  Buffer.contents buf

(* [with_temp_dir prefix f] is [f dir] on a fresh empty directory under
   the temp dir, which is then removed with everything in it, however
   [f] returns: a suite run outside [dune test] leaves nothing behind. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then remove dir) (fun () -> f dir)
