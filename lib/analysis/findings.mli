(** Lint findings: one record per violation, with a source span. *)

type t = {
  rule : string;     (** rule name, e.g. "ct-equality" *)
  file : string;     (** path as given to the linter *)
  line : int;        (** 1-based *)
  col : int;         (** 0-based column of the offending expression *)
  message : string;  (** human explanation, including the suggested fix *)
}

val make : rule:string -> file:string -> loc:Location.t -> string -> t

(** Sort by (file, line, col, rule). *)
val sort : t list -> t list

(** [file:line:col: [rule] message] — the format editors and CI logs parse. *)
val to_text : t -> string
