(** Parsing and running the rule set over files and directory trees. *)

(** {!lint_program} over one in-memory source, with [file] as its
    path (it selects the rules that apply and is reported in findings)
    and no sibling interfaces or other callers: [interfaces] supplies
    the [(path, source)] pairs R7 reads annotations from and R9 reads
    exports from. A syntax error yields a single ["parse"] finding
    rather than an exception. *)
(* lint: allow unused-export — test_lint's per-rule fixtures lint in-memory sources *)
val lint_string :
  rules:Rules.t list ->
  ?interfaces:(string * string) list ->
  file:string -> source:string -> Findings.t list

(** Whole-program lint over the given [.ml] paths: per-file rules on
    each, one interprocedural taint analysis across all of them, R9
    with [callers] (more [.ml] paths, read but not linted) as further
    callers, suppression filtering (the interfaces' allows included),
    bare-allow findings, sorted. Sibling [.mli] files are discovered
    automatically; [interfaces] adds more (tests inject them). *)
val lint_program :
  rules:Rules.t list ->
  ?interfaces:(string * string) list ->
  ?callers:string list ->
  string list -> Findings.t list

(** Where R9's callers live, relative to the repository root:
    [lib], [bin], [bench], [perfbench], [examples] and [test]. *)
val caller_roots : string list

(** All [.ml] files under the given files/directories (recursively),
    sorted; [_build] and dot-directories are skipped. *)
val ml_files : string list -> string list

(** R4's constructors, harvested from the [messages.ml] among [files],
    or else from [lib/core/messages.ml]; [Error] says why when neither
    exists or declares none — there is no built-in copy to fall back
    to. *)
val wire_constructors : string list -> (string list, string) result
