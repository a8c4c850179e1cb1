(** Parsing and running the rule set over files and directory trees. *)

(** Lint in-memory source. [file] selects which rules apply (path
    scoping) and is reported in findings; suppression comments in
    [source] are honored and unjustified ones become ["bare-allow"]
    findings. The interprocedural taint rule (R7) runs over the single
    file; [interfaces] supplies [(path, source)] pairs scanned for
    [(* lint: secret *)] / [(* lint: public *)] annotations. A syntax
    error yields a single ["parse"] finding rather than an exception.
    Findings come back sorted. *)
val lint_string :
  rules:Rules.t list ->
  ?interfaces:(string * string) list ->
  file:string -> source:string -> Findings.t list

(** Whole-program lint over the given [.ml] paths: per-file rules on
    each, one interprocedural taint analysis across all of them
    (summaries cross file boundaries), suppression filtering,
    bare-allow findings, sorted. Sibling [.mli] files are
    discovered automatically; [interfaces] adds more (tests use this
    to inject annotated interfaces). *)
val lint_program :
  rules:Rules.t list ->
  ?interfaces:(string * string) list ->
  string list -> Findings.t list

(** All [.ml] files under the given files/directories (recursively),
    sorted; [_build] and dot-directories are skipped. *)
val ml_files : string list -> string list

(** Constructors of the wire-message types ([Rules.wire_type_names])
    declared in [source], used to keep R4 in sync with [messages.ml].
    Empty if the source declares none (or does not parse). *)
val harvest_wire_constructors : source:string -> string list

(** R4's constructors, harvested from the [messages.ml] among [files],
    or else from [lib/core/messages.ml]; [Error] says why when neither
    exists or declares none — there is no built-in copy to fall back
    to. *)
val wire_constructors : string list -> (string list, string) result

(** Read a file, or [None] if unreadable. *)
val read_file : string -> string option
