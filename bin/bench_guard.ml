(* Bench-regression guard: compare a fresh `bench micro --json` run
   against the committed BENCH_micro.json baseline and fail when any
   kernel regresses past the allowed factor.

   Usage: bench_guard BASELINE.json FRESH.json [factor]

   The factor defaults to 2.5x, deliberately loose: CI machines are
   noisy and bechamel quick-mode estimates jitter by tens of percent,
   so the guard only catches order-of-magnitude mistakes (a dropped
   fast path, an accidental serial fallback), not small drifts. It is
   advisory (continue-on-error) on pull requests and enforced on the
   nightly sweep.

   Large improvements (fresh faster than baseline by the same factor)
   are reported too — not as failures, but as a prompt to refresh the
   committed baseline: a stale slow baseline would mask a later
   regression of the same magnitude.

   Memory entries from the `stream` section (keys containing ".rss." or
   ".heap.") get a different rule: same-run flatness under 2x against
   the smallest n of their family (full-crypto set-up and audit at 1000
   against 100), the bounded-memory contract of the streaming pipeline
   (see DESIGN.md 6.5).

   Exact counts (keys starting "alloc.", e.g. minor words per
   signature) do not drift between runs, so they get no band: any rise
   over the baseline fails, and any fall is reported as an
   improvement. *)

let parse_results path =
  let ic =
    try open_in path
    with Sys_error msg -> Printf.eprintf "bench_guard: %s\n" msg; exit 2
  in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       (* result lines look like  "micro arith.msm.64": 27982565.4,  —
          non-numeric metadata lines simply fail the scan and are
          skipped *)
       match Scanf.sscanf line "%S: %f" (fun k v -> (k, v)) with
       | k, v -> Hashtbl.replace tbl k v
       | exception Scanf.Scan_failure _ | exception Failure _ | exception End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* Multicore scaling entries ([...].dN with N > 1) are not compared on
   absolute time: the committed baseline may come from a many-core box
   while CI runs on 1-2 cores, so "d4 got slower than the baseline's d4"
   says nothing. What is machine-portable is the scaling ratio dN/d1 —
   both measured in the SAME run — so for those keys the guard compares
   (cur dN / cur d1) against (base dN / base d1). If either run lacks
   the d1 counterpart it falls back to the absolute comparison. *)
let scaling_d1_key key =
  let n = String.length key in
  let rec digits i = if i > 0 && key.[i - 1] >= '0' && key.[i - 1] <= '9' then digits (i - 1) else i in
  let d = digits n in
  if d < n && d >= 2 && key.[d - 1] = 'd' && key.[d - 2] = '.' then
    let suffix = String.sub key d (n - d) in
    if suffix <> "1" then Some (String.sub key 0 d ^ "1") else None
  else None

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Memory high-water entries ([...].rss.* / [...].heap.*, in bytes) are
   never compared across runs: absolute RSS depends on the box's
   allocator, page size, and binary layout. What the streaming pipeline
   promises is FLATNESS — peak memory bounded by one wave of lockstep
   groups (set-up) or one chunk (audit), not the electorate — so the
   guard checks, within each file separately, that every memory entry
   of a family (the key up to its last '.', e.g. [full-setup.rss.] or
   [full-audit.rss.]) stays under [mem_factor] (2x) of the family's
   anchor: its entry at the smallest n ([100] for [.100] and [.1000];
   a [k] suffix counts thousands), measured in the same run. *)
let is_memory_key key = contains key ".rss." || contains key ".heap."

(* Throughput entries from the serving benchmarks ([...].rps.*, in
   responses/sec) are higher-is-better: a regression is the fresh run
   falling BELOW baseline/factor, the mirror image of the ns/op rule. *)
let is_throughput_key key = contains key ".rps"

let is_count_key key = String.starts_with ~prefix:"alloc." key

let mem_factor = 2.0

(* A memory key's family (the key up to its last '.') and the
   electorate size it is measured at (its last component, k for
   thousands). *)
let memory_point key =
  match String.rindex_opt key '.' with
  | None -> None
  | Some i ->
    let tag = String.sub key (i + 1) (String.length key - i - 1) in
    let n =
      match Scanf.sscanf_opt tag "%dk%!" Fun.id with
      | Some n -> Some (n * 1000)
      | None -> Scanf.sscanf_opt tag "%d%!" Fun.id
    in
    Option.map (fun n -> (String.sub key 0 (i + 1), n)) n

(* The key of [key]'s family with the smallest n in [tbl], unless that
   is [key] itself. *)
let memory_anchor tbl key =
  let family = Option.map fst (memory_point key) in
  let smallest =
    Hashtbl.fold
      (fun k _ best ->
         match (memory_point k, best) with
         | Some (f, n), Some (_, m) when Some f = family && n >= m -> best
         | Some (f, n), _ when Some f = family -> Some (k, n)
         | _ -> best)
      tbl None
  in
  match smallest with Some (k, _) when k <> key -> Some k | _ -> None

let () =
  let baseline, fresh, factor =
    match Sys.argv with
    | [| _; b; f |] -> (b, f, 2.5)
    | [| _; b; f; x |] -> (b, f, float_of_string x)
    | _ ->
      prerr_endline "usage: bench_guard BASELINE.json FRESH.json [factor]";
      exit 2
  in
  let base = parse_results baseline and cur = parse_results fresh in
  if Hashtbl.length base = 0 then begin
    Printf.eprintf "bench_guard: no results parsed from %s\n" baseline;
    exit 2
  end;
  let regressions = ref [] and improvements = ref []
  and checked = ref 0 and missing = ref [] in
  Hashtbl.iter
    (fun key bv ->
       match Hashtbl.find_opt cur key with
       | None -> missing := key :: !missing
       | Some _ when is_memory_key key -> ()  (* gated by the flatness pass *)
       | Some cv when is_count_key key ->
         incr checked;
         if cv > bv then regressions := (key, bv, cv) :: !regressions
         else if cv < bv then improvements := (key, bv, cv) :: !improvements
       | Some cv ->
         incr checked;
         let ratio_pair =
           match scaling_d1_key key with
           | None -> None
           | Some k1 ->
             (match Hashtbl.find_opt base k1, Hashtbl.find_opt cur k1 with
              | Some b1, Some c1 when b1 > 0. && c1 > 0. ->
                Some (bv /. b1, cv /. c1)
              | _ -> None)
         in
         (match ratio_pair with
          | Some (br, cr) ->
            if cr > br *. factor then regressions := (key ^ " (dN/d1 ratio)", br, cr) :: !regressions
          | None ->
            if is_throughput_key key then begin
              if cv *. factor < bv then regressions := (key, bv, cv) :: !regressions
              else if cv > bv *. factor then improvements := (key, bv, cv) :: !improvements
            end
            else if cv > bv *. factor then regressions := (key, bv, cv) :: !regressions
            else if cv *. factor < bv then improvements := (key, bv, cv) :: !improvements))
    base;
  (* memory flatness: each entry within mem_factor of its family's
     smallest-n anchor, per file *)
  let flat_failures = ref [] in
  let check_flat label tbl =
    Hashtbl.iter
      (fun key v100 ->
         if is_memory_key key then
           match memory_anchor tbl key with
           | None -> ()
           | Some k1 ->
             (match Hashtbl.find_opt tbl k1 with
              | Some v1 when v1 > 0. ->
                incr checked;
                if v100 > v1 *. mem_factor then
                  flat_failures := (label, key, k1, v1, v100) :: !flat_failures
              | _ -> ()))
      tbl
  in
  check_flat "baseline" base;
  check_flat "fresh" cur;
  List.iter
    (fun key -> Printf.printf "WARN  %s: present in baseline, missing from fresh run\n" key)
    (List.sort compare !missing);
  List.iter
    (fun (label, key, k1, v1, v100) ->
       Printf.printf
         "FAIL  %s %s: %.0f -> %.0f bytes vs %s (%.2fx > %.2fx allowed memory growth)\n"
         label key v1 v100 k1 (v100 /. v1) mem_factor)
    (List.sort compare !flat_failures);
  List.iter
    (fun (key, bv, cv) ->
       let is_ratio =
         let tag = " (dN/d1 ratio)" in
         String.length key >= String.length tag
         && String.sub key (String.length key - String.length tag) (String.length tag) = tag
       in
       if is_count_key key then
         Printf.printf "FAIL  %s: %.1f -> %.1f (an exact count rose)\n" key bv cv
       else begin
         let unit =
           if is_ratio then ""
           else if is_throughput_key key then " ops/sec"
           else " ns/op"
         in
         let slowdown = if is_throughput_key key then bv /. cv else cv /. bv in
         Printf.printf "FAIL  %s: %.1f -> %.1f%s (%.2fx > %.2fx allowed)\n"
           key bv cv unit slowdown factor
       end)
    (List.sort compare !regressions);
  List.iter
    (fun (key, bv, cv) ->
       if is_count_key key then
         Printf.printf "IMPROVE  %s: %.1f -> %.1f (an exact count fell)\n" key bv cv
       else begin
         let unit = if is_throughput_key key then " ops/sec" else " ns/op" in
         let speedup = if is_throughput_key key then cv /. bv else bv /. cv in
         Printf.printf "IMPROVE  %s: %.1f -> %.1f%s (%.2fx faster than baseline)\n"
           key bv cv unit speedup
       end)
    (List.sort compare !improvements);
  if !improvements <> [] then
    Printf.printf
      "NOTE  %d kernel(s) improved past the %.2fx guard band; the committed \
       baseline is stale and would mask an equal-size regression — refresh it \
       with `dune exec bench/main.exe -- micro stream --json`\n"
      (List.length !improvements) factor;
  Printf.printf
    "bench_guard: %d keys checked against %s, %d regression(s), %d memory-growth failure(s), %d improvement(s), factor %.2fx\n"
    !checked baseline (List.length !regressions) (List.length !flat_failures)
    (List.length !improvements) factor;
  if !regressions <> [] || !flat_failures <> [] then exit 1
