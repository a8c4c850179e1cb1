(* Unit-vector option encodings. The i-th of m options is encoded as
   the unit vector e_i (1 in position i, 0 elsewhere); its commitment is
   the vector of lifted-ElGamal commitments to each coordinate. This is
   the scheme the paper adopts instead of DEMOS's N^(i-1) encoding, so
   the curve size no longer grows with the number of options. *)

module Nat = Dd_bignum.Nat

type t = Elgamal.t array

type opening = Elgamal.opening array

let openings gctx rng ~options ~choice =
  if choice < 0 || choice >= options then invalid_arg "Unit_vector.commit: choice out of range";
  Array.init options (fun i ->
      { Elgamal.msg = (if i = choice then Nat.one else Nat.zero);
        rand = Dd_group.Group_ctx.random_scalar gctx rng })

let commit gctx rng ~options ~choice =
  let o = openings gctx rng ~options ~choice in
  (Array.map (fun (oi : Elgamal.opening) -> Elgamal.commit gctx ~msg:oi.msg ~rand:oi.rand) o, o)

(* k-out-of-m selection (the extension sketched in the paper's
   conclusion): commit to a 0/1 vector with ones exactly at [choices]. *)
let commit_k gctx rng ~options ~choices =
  List.iter
    (fun c ->
       if c < 0 || c >= options then invalid_arg "Unit_vector.commit_k: choice out of range")
    choices;
  if List.length (List.sort_uniq compare choices) <> List.length choices then
    invalid_arg "Unit_vector.commit_k: duplicate choice";
  let pairs =
    Array.init options (fun i ->
        let msg = if List.mem i choices then Nat.one else Nat.zero in
        Elgamal.commit_random gctx rng ~msg)
  in
  (Array.map fst pairs, Array.map snd pairs)

let add gctx (a : t) (b : t) : t =
  if Array.length a <> Array.length b then invalid_arg "Unit_vector.add: length mismatch";
  Array.mapi (fun i ai -> Elgamal.add gctx ai b.(i)) a

let sum gctx ~options l =
  List.fold_left (add gctx) (Array.make options (Elgamal.zero_commitment gctx)) l

let add_opening gctx (a : opening) (b : opening) : opening =
  if Array.length a <> Array.length b then invalid_arg "Unit_vector.add_opening: length mismatch";
  Array.mapi (fun i ai -> Elgamal.add_opening gctx ai b.(i)) a

let sum_openings gctx ~options l =
  let zero = Array.make options Elgamal.{ msg = Nat.zero; rand = Nat.zero } in
  List.fold_left (add_opening gctx) zero l

let verify gctx (c : t) (o : opening) =
  Array.length c = Array.length o
  && begin
    let ok = ref true in
    Array.iteri (fun i ci -> if not (Elgamal.verify gctx ci o.(i)) then ok := false) c;
    !ok
  end

(* Batch the coordinate checks of many unit vectors: length checks
   stay serial, every coordinate's two opening equations flatten into
   one ElGamal batch (one MSM for the whole list). *)
let verify_batch gctx rng (items : (t * opening) list) =
  let ok = ref true in
  let coords =
    List.concat_map
      (fun ((c : t), (o : opening)) ->
         if Array.length c <> Array.length o then begin
           ok := false; []
         end
         else Array.to_list (Array.mapi (fun i ci -> (ci, o.(i))) c))
      items
  in
  !ok && Elgamal.verify_batch gctx rng (Array.of_list coords)

(* Check an opening decodes to the unit vector for [choice]. *)
let opening_is_unit (o : opening) ~choice =
  Array.length o > choice
  && begin
    let ok = ref true in
    Array.iteri (fun i oi ->
        let expected = if i = choice then Nat.one else Nat.zero in
        if not (Nat.equal oi.Elgamal.msg expected) then ok := false)
      o;
    !ok
  end

(* Read a tally vector out of openings of a homomorphic sum. *)
let counts_of_opening (o : opening) =
  Array.map (fun oi -> Nat.to_int oi.Elgamal.msg) o

let encode gctx (c : t) =
  String.concat "" (Array.to_list (Array.map (Elgamal.encode gctx) c))

let equal gctx (a : t) (b : t) =
  Array.length a = Array.length b
  && begin
    let ok = ref true in
    Array.iteri (fun i ai -> if not (Elgamal.equal gctx ai b.(i)) then ok := false) a;
    !ok
  end
