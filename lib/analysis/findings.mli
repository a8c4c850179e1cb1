(** Lint findings: one record per violation, with a source span and a
    stable fingerprint. *)

type t = {
  rule : string;     (** rule name, e.g. "ct-equality" *)
  file : string;     (** path as given to the linter *)
  line : int;        (** 1-based *)
  col : int;         (** 0-based column of the offending expression *)
  message : string;  (** human explanation, including the suggested fix *)
  fingerprint : string;
      (** 16 hex chars, filled by {!fingerprint_all}; stable across
          unrelated-line insertions (no line/col in the hash) *)
}

val make : rule:string -> file:string -> loc:Location.t -> string -> t

(** Sort by (file, line, col, rule). *)
val sort : t list -> t list

(** Assign fingerprints: hash of (rule, file, message, occurrence
    index within the file). Returns the findings sorted. *)
val fingerprint_all : t list -> t list

(** [file:line:col: [rule] message] — the format editors and CI logs parse. *)
val to_text : t -> string

(** SARIF 2.1.0 log: one run, [rules] is the [(id, shortDescription)]
    table for the tool.driver.rules component, fingerprints are
    emitted under [partialFingerprints."ddemosLint/v1"]. *)
val to_sarif : rules:(string * string) list -> t list -> string
