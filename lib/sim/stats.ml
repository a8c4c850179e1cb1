(* Measurement helpers for the evaluation harness: latency sample sets
   with mean/percentiles, and throughput from counts over virtual
   time windows. *)

type sample_set = {
  mutable samples : float list;
  mutable count : int;
}

let sample_set () = { samples = []; count = 0 }

let record s v =
  s.samples <- v :: s.samples;
  s.count <- s.count + 1


let mean s =
  if s.count = 0 then 0.
  else List.fold_left ( +. ) 0. s.samples /. float_of_int s.count

let sorted s = List.sort compare s.samples

let percentile s p =
  if s.count = 0 then 0.
  else begin
    let arr = Array.of_list (sorted s) in
    let idx = int_of_float (p /. 100. *. float_of_int (Array.length arr - 1) +. 0.5) in
    arr.(max 0 (min (Array.length arr - 1) idx))
  end

let median s = percentile s 50.
let p99 s = percentile s 99.

let max_sample s = List.fold_left max neg_infinity s.samples

(* Throughput over an explicit window of virtual time. *)
let throughput ~completed ~duration =
  if duration <= 0. then 0. else float_of_int completed /. duration
