(** Module-qualified call graph over a set of parsed files, the
    backbone of the interprocedural passes (R7 secret-taint). Function
    bodies are kept as raw [Parsetree] expressions; summaries live in
    {!Taint}. *)

type fn = {
  fq : string;           (** qualified name, e.g. ["Ea.setup_chunks"], ["Ea.Inner.f"] *)
  unit_module : string;  (** enclosing compilation unit, e.g. ["Ea"] *)
  params : (Asttypes.arg_label * Parsetree.pattern) list;
      (** the [fun] chain's parameters, in declaration order *)
  body : Parsetree.expression;  (** innermost non-[fun] expression *)
  loc : Location.t;
}

type t

(** ["lib/core/ea.ml"] -> ["Ea"]. *)
val module_of_path : string -> string

(** Harvest every top-level (and nested-module) function of every
    file. Files are [(path, parsed structure)] pairs. *)
val build : (string * Parsetree.structure) list -> t

(** All functions, in declaration order across the input files. *)
val functions : t -> fn list

(** Resolve a call site appearing inside module [current] (dotted
    prefix, e.g. ["Ea"]): unqualified names search the enclosing
    module chain outwards, [M.f] resolves by its last [(module, name)]
    pair — so local module aliases still resolve. [None] for calls
    into the stdlib or out of the analyzed set. *)
val resolve : t -> current:string -> Longident.t -> fn option
