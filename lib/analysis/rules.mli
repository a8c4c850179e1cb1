(** The rule registry. Each rule is an [Ast_iterator]-based pass over
    one file's parsetree, scoped to the directories where its invariant
    applies. docs/INVARIANTS.md states each rule's threat-model
    rationale. *)

type t = {
  name : string;
  short : string;                       (** one-line description for --list-rules *)
  applies : string -> bool;             (** does this rule cover the given path? *)
  check : file:string -> Parsetree.structure -> Findings.t list;
}

(** Names of the type declarations whose constructors R4 protects. *)
val wire_type_names : string list

(** The syntactic rules, each scoped to the directories where its
    invariant applies: R1 [ct-equality], R2 [sans-io], R3
    [exception-hygiene], R4 [wire-exhaustive] over
    [wire_constructors] (ddemos_lint harvests them with
    {!Lint.wire_constructors}), R6 [domain-safe-state] and R8
    [domain-escape]. docs/INVARIANTS.md states each one's scope and
    rationale. *)
val all : wire_constructors:string list -> t list

(** {2 Shared syntactic helpers} — used by the interprocedural taint
    engine ({!Taint}) and its call graph, kept here so the rules agree on names and sinks. *)

(** Is [path] under one of the given top-level directories
    (["lib/crypto"], ...)? Tolerant of [../] prefixes and absolute
    paths (dune runs rules from [_build]). *)
val under : string list -> string -> bool

val flatten : Longident.t -> string list
val last_component : Longident.t -> string

(** [matches_name lid "Hashtbl.find"] — compares the flattened
    longident against the dotted name, ignoring a [Stdlib.] prefix. *)
val matches_name : Longident.t -> string -> bool

(** Callees of the variable-time group surface (R7 sinks). *)
val vartime_callees : string list

(** Does [s] end with [suffix]? *)
val has_suffix : string -> string -> bool

(** The operator name when this callee is a banned early-exit
    comparison ([=], [compare], [String.equal], ...). *)
val banned_comparison : Longident.t -> string option
