(* Unit-vector option encodings. The i-th of m options is encoded as
   the unit vector e_i (1 in position i, 0 elsewhere); its commitment is
   the vector of lifted-ElGamal commitments to each coordinate. This is
   the scheme the paper adopts instead of DEMOS's N^(i-1) encoding, so
   the curve size no longer grows with the number of options. *)

module Sc = Dd_bignum.Sc

type t = Elgamal.t array

type opening = Elgamal.opening array

let openings rng ~options ~choice =
  if choice < 0 || choice >= options then invalid_arg "Unit_vector.commit: choice out of range";
  Array.init options (fun i ->
      { Elgamal.msg = (if i = choice then Sc.one else Sc.zero);
        rand = Dd_group.Curve.random_scalar rng })

let commit rng ~options ~choice =
  let o = openings rng ~options ~choice in
  (Array.map (fun (oi : Elgamal.opening) -> Elgamal.commit ~msg:oi.msg ~rand:oi.rand) o, o)

(* k-out-of-m selection (the extension sketched in the paper's
   conclusion): commit to a 0/1 vector with ones exactly at [choices]. *)
let commit_k rng ~options ~choices =
  List.iter
    (fun c ->
       if c < 0 || c >= options then invalid_arg "Unit_vector.commit_k: choice out of range")
    choices;
  if List.length (List.sort_uniq compare choices) <> List.length choices then
    invalid_arg "Unit_vector.commit_k: duplicate choice";
  let pairs =
    Array.init options (fun i ->
        let msg = if List.mem i choices then Sc.one else Sc.zero in
        Elgamal.commit_random rng ~msg)
  in
  (Array.map fst pairs, Array.map snd pairs)

let add (a : t) (b : t) : t =
  if Array.length a <> Array.length b then invalid_arg "Unit_vector.add: length mismatch";
  Array.mapi (fun i ai -> Elgamal.add ai b.(i)) a

let sum ~options l = List.fold_left add (Array.make options Elgamal.zero_commitment) l

let add_opening (a : opening) (b : opening) : opening =
  if Array.length a <> Array.length b then invalid_arg "Unit_vector.add_opening: length mismatch";
  Array.mapi (fun i ai -> Elgamal.add_opening ai b.(i)) a

let sum_openings ~options l =
  let zero = Array.make options Elgamal.{ msg = Sc.zero; rand = Sc.zero } in
  List.fold_left add_opening zero l

let verify (c : t) (o : opening) =
  Array.length c = Array.length o && Array.for_all2 Elgamal.verify c o

(* Batch the coordinate checks of many unit vectors: length checks
   stay serial, every coordinate's two opening equations flatten into
   one ElGamal batch (one MSM for the whole list). *)
let verify_batch rng (items : (t * opening) list) =
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
  !ok && Elgamal.verify_batch rng (Array.of_list coords)

let encode (c : t) = String.concat "" (Array.to_list (Array.map Elgamal.encode c))

(* The check for published openings, shared by the bulletin board and
   the auditor: [verify_batch] under Fiat-Shamir weights seeded from
   [label] and the items themselves, so every party re-checking the
   same data derives the same weights without an entropy source. Sound
   because the data is fixed before the weights exist. *)
let verify_published ~label (items : (t * opening) array) =
  let scalar n =
    let b = Sc.to_bytes_trimmed n in
    string_of_int (String.length b) ^ ":" ^ b
  in
  let item_parts ((c : t), (o : opening)) =
    encode c
    :: List.concat_map
      (fun (op : Elgamal.opening) -> [ scalar op.Elgamal.msg; scalar op.Elgamal.rand ])
      (Array.to_list o)
  in
  let items = Array.to_list items in
  let rng = Dd_group.Batch.derive_rng ~label (List.concat_map item_parts items) in
  verify_batch rng items

(* Read a tally vector out of openings of a homomorphic sum. *)
let counts_of_opening (o : opening) =
  Array.map (fun oi -> Sc.to_int oi.Elgamal.msg) o
