(** Rule R9 [unused-export]: every [val] of a [lib/] interface, nested
    module signatures included, needs a reference from outside its own
    compilation unit by a caller that is not a test. A re-export
    ([let f = M.f]) is a use of [M.f]; docs/INVARIANTS.md §R9 states
    how references resolve and the allow form. *)

val rule_name : string     (** ["unused-export"] *)

val short : string         (** one-line description for [--list-rules] *)

(** One finding per export of the parsed [interfaces] that no parsed
    caller outside a [test] directory references, naming the tests
    that do; not yet suppression-filtered. *)
val run :
  interfaces:(string * Parsetree.signature) list ->
  callers:(string * Parsetree.structure) list ->
  Findings.t list
