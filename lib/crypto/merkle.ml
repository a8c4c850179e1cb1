(* Domain-separated SHA-256 Merkle trees (RFC 6962 shape). *)

let leaf_hash payload = Sha256.digest_list [ "\x00"; payload ]
let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]
let empty_root = Sha256.digest ""

(* Largest power of two strictly less than n (n >= 2). *)
let split_point n =
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  !k

(* Incremental frontier: peaks.(i) holds the root of a complete subtree
   of 2^i leaves, mirroring the binary representation of [count]. Adding
   a leaf carries like binary increment. Bounded by 63 peaks. *)
type builder = { mutable peaks : string option array; mutable n : int }

let create () = { peaks = Array.make 8 None; n = 0 }
let ensure b i =
  if i >= Array.length b.peaks then begin
    let p = Array.make (max (i + 1) (2 * Array.length b.peaks)) None in
    Array.blit b.peaks 0 p 0 (Array.length b.peaks);
    b.peaks <- p
  end

let add_hash b h =
  let rec carry i h =
    ensure b i;
    match b.peaks.(i) with
    | None -> b.peaks.(i) <- Some h
    | Some l ->
        b.peaks.(i) <- None;
        carry (i + 1) (node_hash l h)
  in
  carry 0 h;
  b.n <- b.n + 1

let add b payload = add_hash b (leaf_hash payload)

(* Fold the peaks right-to-left: the rightmost (lowest) peak is the
   deepest incomplete suffix, and each higher peak hangs it on its
   right. This reproduces the left-complete recursive split. *)
let root b =
  if b.n = 0 then empty_root
  else begin
    let acc = ref None in
    for i = 0 to Array.length b.peaks - 1 do
      match b.peaks.(i) with
      | None -> ()
      | Some p ->
          acc := Some (match !acc with None -> p | Some r -> node_hash p r)
    done;
    match !acc with Some r -> r | None -> assert false
  end

let rec root_of_hashes = function
  | [] -> empty_root
  | [ h ] -> h
  | hs ->
      let n = List.length hs in
      let k = split_point n in
      let left = List.filteri (fun i _ -> i < k) hs in
      let right = List.filteri (fun i _ -> i >= k) hs in
      node_hash (root_of_hashes left) (root_of_hashes right)

let root_of_leaves leaves = root_of_hashes (List.map leaf_hash leaves)

type step = L of string | R of string

let proof_of_hashes hs index =
  let n = List.length hs in
  if index < 0 || index >= n then invalid_arg "Merkle.proof_of_hashes";
  let rec go hs n index =
    if n = 1 then []
    else begin
      let k = split_point n in
      let left = List.filteri (fun i _ -> i < k) hs in
      let right = List.filteri (fun i _ -> i >= k) hs in
      if index < k then go left k index @ [ R (root_of_hashes right) ]
      else go right (n - k) (index - k) @ [ L (root_of_hashes left) ]
    end
  in
  go hs n index

let verify ~root ~leaf_digest path =
  let acc =
    List.fold_left
      (fun acc step ->
        match step with
        | L sib -> node_hash sib acc
        | R sib -> node_hash acc sib)
      leaf_digest path
  in
  String.equal acc root
