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

(** R1: no early-exit equality on secret-bearing values
    (vote codes, receipts, MACs, keys, shares) — require [Dd_crypto.Ct.equal].
    Scope: lib/crypto, lib/core, lib/vss. *)
val ct_equality : t

(** R2: sans-IO hygiene — no ambient randomness, wall-clock time, or
    console IO outside the simulator; nondeterminism flows through the
    injected [Drbg] / [now]. Scope: lib/** except lib/sim. *)
val sans_io : t

(** R3: Byzantine-input exception hygiene — no raising lookup/partial
    APIs ([Hashtbl.find], [List.find], [Option.get], [failwith],
    [assert], ...) in node code that handles adversarial messages;
    use [_opt] variants with explicit drop/reject.
    Scope: lib/core, lib/consensus. *)
val exception_hygiene : t

(** R4: wire-message exhaustiveness — no wildcard arms in matches over
    the protocol message types, so adding a variant forces every
    dispatch site to decide. Scope: all linted files. *)
val wire_exhaustive : constructors:string list -> t

(** Constructors of [Messages.vc_msg] / [Messages.bb_msg] as of this
    writing; the driver re-harvests them from [messages.ml] so the rule
    tracks the real type. *)
val default_wire_constructors : string list

(** Names of the type declarations whose constructors R4 protects. *)
val wire_type_names : string list

(** R6: no top-level mutable state ([ref]/[Array.make]/[Bytes.create]/
    [Hashtbl.create]/...) or [lazy] in the domain-shared arithmetic
    stack; use [Domain.DLS] for scratch and [Dd_parallel.Once] /
    [Atomic] for compute-once caches. Scope: lib/bignum, lib/crypto,
    lib/group, lib/sig. *)
val domain_safe_state : t

(** R8: closures handed to [Dd_parallel.Pool.parallel_for/map/reduce]
    run on every domain concurrently — they must not mutate captured
    state (refs, Hashtbl, Buffer, Queue, ...) or touch top-level
    mutable bindings. The single sanctioned captured write is a
    disjoint index-addressed slot whose index derives from a
    closure-bound name. Scope: all linted files. *)
val domain_escape : t

val all : ?wire_constructors:string list -> unit -> t list

(** {2 Shared syntactic helpers} — used by the interprocedural taint
    engine ({!Taint}), kept here so the rules agree on names and sinks. *)

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
