(* Order statistics for the benchmark's reports. *)

(* Percentile [p] (0..100) of unsorted samples, linearly interpolated
   between closest ranks (numpy's default convention). *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quant.percentile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let r = Float.max 0. (Float.min 1. (p /. 100.)) *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor r) in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = percentile 50. xs

(* Samples strictly above the [p]-th percentile: a tail percentile is
   only worth reporting with at least ten of them. *)
let beyond p xs =
  let v = percentile p xs in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 xs
