(* ddemos-lint: enforce the codebase's security & sans-IO invariants.

   Usage: ddemos_lint [--list-rules] [paths...]

   Walks every .ml under the given paths (default: lib), runs the
   per-file rule registry plus the whole-program taint engine
   (docs/INVARIANTS.md), prints findings as file:line:col lines, and
   exits 1 when any finding
   survives suppression: a finding is either fixed or allowed inline
   with a reason. Wired into the build as `dune build @lint`. *)

module Lint = Dd_analysis.Lint
module Rules = Dd_analysis.Rules
module Findings = Dd_analysis.Findings
module Taint = Dd_analysis.Taint

let messages_file files =
  List.find_opt (fun f -> Filename.basename f = "messages.ml") files

let usage = "usage: ddemos_lint [--list-rules] [paths...]"

let () =
  let list_rules = ref false and paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--list-rules" :: rest -> list_rules := true; parse_args rest
    | ("--help" | "-h") :: _ -> print_endline usage; exit 0
    | p :: rest -> paths := p :: !paths; parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots = if !paths = [] then [ "lib" ] else List.rev !paths in
  (match List.filter (fun r -> not (Sys.file_exists r)) roots with
   | [] -> ()
   | missing ->
     Printf.eprintf "ddemos-lint: no such file or directory: %s\n"
       (String.concat ", " missing);
     exit 2);
  let files = Lint.ml_files roots in
  (* keep R4 in sync with the real message types: harvest the
     constructors from messages.ml when it is in scope *)
  let wire_constructors =
    match messages_file files with
    | Some path ->
      (match Lint.read_file path with
       | Some source ->
         (match Lint.harvest_wire_constructors ~source with
          | [] -> Rules.default_wire_constructors
          | cs -> cs)
       | None -> Rules.default_wire_constructors)
    | None -> Rules.default_wire_constructors
  in
  let rules = Rules.all ~wire_constructors () in
  if !list_rules then begin
    List.iter (fun (r : Rules.t) -> Printf.printf "%-18s %s\n" r.Rules.name r.Rules.short)
      rules;
    Printf.printf "%-18s %s\n" Taint.rule_name Taint.short;
    Printf.printf "%-18s %s\n" "bare-allow"
      "suppression comments must name a known rule and justify themselves";
    exit 0
  end;
  let findings = Lint.lint_program ~rules files in
  List.iter (fun f -> print_endline (Findings.to_text f)) findings;
  Printf.eprintf "ddemos-lint: %d files checked, %d finding%s\n"
    (List.length files) (List.length findings)
    (if List.length findings = 1 then "" else "s");
  exit (if findings = [] then 0 else 1)
