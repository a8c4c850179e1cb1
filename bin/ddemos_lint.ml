(* ddemos-lint: enforce the codebase's security & sans-IO invariants.

   Usage: ddemos_lint [--list-rules] [paths...]

   Walks every .ml under the given paths (default: lib), runs the
   per-file rule registry plus the whole-program taint engine and R9,
   which also reads the .ml under Lint.caller_roots as callers
   (docs/INVARIANTS.md), prints findings as file:line:col lines, and
   exits 1 when any finding
   survives suppression: a finding is either fixed or allowed inline
   with a reason. Exits 2 on a missing path, or when no messages.ml
   gives R4 its wire constructors. Wired into the build as
   `dune build @lint`. *)

module Lint = Dd_analysis.Lint
module Rules = Dd_analysis.Rules
module Findings = Dd_analysis.Findings
module Taint = Dd_analysis.Taint
module Exports = Dd_analysis.Exports

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
  (* R4 tracks the real message types: its constructors come from
     messages.ml, never from a copy that could go stale *)
  let wire_constructors =
    match Lint.wire_constructors files with
    | Ok cs -> cs
    | Error why ->
      Printf.eprintf "ddemos-lint: %s\n" why;
      exit 2
  in
  let rules = Rules.all ~wire_constructors in
  if !list_rules then begin
    List.iter (fun (r : Rules.t) -> Printf.printf "%-18s %s\n" r.Rules.name r.Rules.short)
      rules;
    Printf.printf "%-18s %s\n" Taint.rule_name Taint.short;
    Printf.printf "%-18s %s\n" Exports.rule_name Exports.short;
    Printf.printf "%-18s %s\n" "bare-allow"
      "suppression comments must name a known rule and justify themselves";
    exit 0
  end;
  let callers = Lint.ml_files Lint.caller_roots in
  let findings = Lint.lint_program ~rules ~callers files in
  List.iter (fun f -> print_endline (Findings.to_text f)) findings;
  Printf.eprintf "ddemos-lint: %d files checked, %d finding%s\n"
    (List.length files) (List.length findings)
    (if List.length findings = 1 then "" else "s");
  exit (if findings = [] then 0 else 1)
