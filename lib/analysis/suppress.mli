(** Suppression comments.

    A finding of rule [r] on line [n] is suppressed when the source
    carries an allow comment naming [r] and saying why on line [n]
    itself or on line [n - 1] (the comment-above idiom). Several rules
    can be allowed at once: [(* lint: allow ct-equality sans-io <why> *)]. The
    justification [<why>] is mandatory: an allow with no rationale (or
    naming no known rule) is itself reported under rule "bare-allow".
    Rule names are validated against the [known] list, so the
    justification simply begins at the first non-rule word. *)

type entry = {
  line : int;
  rules : string list;  (** recognized rule names *)
  justified : bool;     (** rationale text present on the same line *)
}

type t = entry list

(** Scan raw source text for allow comments; [known] is the list of
    valid rule names. *)
val scan : known:string list -> string -> t

(** Is [rule] allowed at [line]? *)
val allowed : t -> rule:string -> line:int -> bool

(** Allows that carry no justification (or name no known rule):
    [(line, recognized_rules)] pairs, for "bare-allow" findings. *)
val unjustified : t -> (int * string list) list
