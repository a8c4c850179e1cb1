(* One workload run: notes first, then the result object as the last
   line of standard output. Exits 1, printing no result, when the run
   or an output check fails; 2 on bad usage. *)

let usage =
  "main.exe --workload cast-rush|cast-trickle|election-day --seed N --seconds S --trace 0|1"

(* Temporary state dirs and span files, relative to the checkout the
   benchmark runs in. *)
let work_dir = ".bench_build/perfbench"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       metrics)

let main argv =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S run length; sizes the work");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run") ]
  in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    2
  in
  match
    Arg.parse_argv ~current:(ref 0) argv specs
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage
  with
  | exception (Arg.Bad msg | Arg.Help msg) -> bad msg
  | () ->
    (match List.assoc_opt !workload Workloads.names with
     | None -> bad (Printf.sprintf "unknown workload %S" !workload)
     | Some _ when !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
       bad "bad --seed, --seconds or --trace"
     | Some kind ->
       let tr = Trace.create ~on:(!trace = 1) in
       let run () =
         Workloads.run kind tr
           ~seed:(Printf.sprintf "%s|%d" !workload !seed)
           ~seconds:!seconds ~state_root:work_dir
       in
       (match run () with
        | exception (Workloads.Failed msg | Sys_error msg) ->
          Printf.eprintf "%s: run failed: %s\n" !workload msg;
          1
        | r ->
          let metrics =
            if Trace.enabled tr then r.Workloads.per_layer else r.Workloads.end_to_end
          in
          (match List.concat_map Checks.failures r.Workloads.outputs with
           | _ :: _ as failures ->
             List.iter (Printf.eprintf "%s: check failed: %s\n" !workload) failures;
             1
           | [] when List.exists (fun (_, v, _) -> not (Float.is_finite v)) metrics ->
             Printf.eprintf "%s: a metric is not a finite number\n" !workload;
             1
           | [] ->
             List.iter print_endline r.Workloads.notes;
             Printf.printf "# wall_s %.6f\n" r.Workloads.wall_s;
             if Trace.enabled tr then begin
               Workloads.mkdir_p work_dir;
               let path =
                 Filename.concat work_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed)
               in
               Trace.write tr path;
               Printf.printf "# spans written to %s\n" path
             end;
             Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
               r.Workloads.attempted r.Workloads.failed (json_metrics metrics);
             0)))
