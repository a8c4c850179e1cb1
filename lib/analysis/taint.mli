(** Rule R7 [secret-taint]: interprocedural forward taint tracking
    from secret sources (DRBG outputs, [(* lint: secret *)]-annotated
    [.mli] values and record fields, secret-named identifiers as a
    fallback) to the sinks where a secret must never arrive (the
    variable-time group surface, [Dd_codec.Wire] encoders, early-exit
    comparison, formatted output), by real value flow: rebinding,
    destructuring, and cross-function flows via per-function
    summaries over the {!Callgraph}.
    docs/INVARIANTS.md §R7 states the threat model, the source/sink
    tables, the summary semantics and the known approximations. *)

val rule_name : string     (** ["secret-taint"] *)

val short : string         (** one-line description for [--list-rules] *)

(** Run the whole-program analysis. [files] are the parsed
    implementations, [interfaces] the raw [.mli] sources scanned for
    [(* lint: secret *)] / [(* lint: public *)] annotations.
    Returned findings are sorted but not yet suppression-filtered. *)
val run :
  files:(string * Parsetree.structure) list ->
  interfaces:(string * string) list ->
  Findings.t list
