open Parsetree

type t = {
  name : string;
  short : string;
  applies : string -> bool;
  check : file:string -> Parsetree.structure -> Findings.t list;
}

(* --- path scoping ------------------------------------------------------- *)

let components path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "" && c <> ".")

(* [under ["lib"; "core"] "lib/core/vc_node.ml"] is true; absolute and
   _build-relative paths work because we only require the component
   sequence to appear somewhere in the path. *)
let under dirs path =
  let cs = components path in
  let rec prefix = function
    | [], _ -> true
    | _, [] -> false
    | d :: ds, c :: cs -> d = c && prefix (ds, cs)
  in
  let rec scan cs = cs <> [] && (prefix (dirs, cs) || scan (List.tl cs)) in
  scan cs

(* --- longident helpers -------------------------------------------------- *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (l, _) -> flatten l

(* Compare a use site against a dotted name, ignoring an explicit
   [Stdlib.] prefix so [Stdlib.failwith] and [failwith] both match. *)
let matches_name lid dotted =
  let norm = function "Stdlib" :: rest -> rest | l -> l in
  norm (flatten lid) = norm (String.split_on_char '.' dotted)

let last_component lid =
  match List.rev (flatten lid) with c :: _ -> c | [] -> ""

(* Shared driver: build an [Ast_iterator] whose [expr] hook appends
   findings, run it over the structure, return them. *)
let over_expressions ~file f structure =
  let acc = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
           (match f ~file e with [] -> () | fs -> acc := fs @ !acc);
           Ast_iterator.default_iterator.expr it e) }
  in
  it.structure it structure;
  !acc

let finding ~rule ~file ~loc fmt = Printf.ksprintf (Findings.make ~rule ~file ~loc) fmt

(* === R1: ct-equality ==================================================== *)

(* Secret-bearing names. An argument participates when it is a bare
   identifier or a record-field access whose (last) name is one of
   these or carries one of the suffixes: intermediate path components
   (module prefixes, the record being projected from) do not count, so
   [share.Shamir_bytes.x = node + 1] is fine while [u.u_code = code]
   is not. *)
let secret_exact =
  [ "code"; "codes"; "vote_code"; "receipt"; "mac"; "msk"; "secret"; "sk";
    "seed"; "share"; "key"; "tag"; "digest" ]

let secret_suffixes =
  [ "_code"; "_receipt"; "_mac"; "_msk"; "_secret"; "_seed"; "_share"; "_key";
    "_tag"; "_digest"; "_hmac" ]

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let secret_name n =
  let n = String.lowercase_ascii n in
  List.mem n secret_exact || List.exists (has_suffix n) secret_suffixes

(* The name an argument expression exposes for the secret heuristic. *)
let arg_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (last_component txt)
  | Pexp_field (_, { txt; _ }) -> Some (last_component txt)
  | _ -> None

let banned_comparison lid =
  match flatten lid with
  | [ "=" ] -> Some "="
  | [ "<>" ] -> Some "<>"
  | [ "compare" ] | [ "Stdlib"; "compare" ] -> Some "compare"
  | [ "String"; "equal" ] -> Some "String.equal"
  | [ "String"; "compare" ] -> Some "String.compare"
  | [ "Bytes"; "equal" ] -> Some "Bytes.equal"
  | [ "Bytes"; "compare" ] -> Some "Bytes.compare"
  | _ -> None

let ct_equality =
  { name = "ct-equality";
    short = "secret-bearing values must be compared with Dd_crypto.Ct.equal";
    applies =
      (fun p -> under [ "lib"; "crypto" ] p || under [ "lib"; "core" ] p
                || under [ "lib"; "vss" ] p);
    check =
      (fun ~file structure ->
         over_expressions ~file
           (fun ~file e ->
              match e.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
                (match banned_comparison txt with
                 | None -> []
                 | Some op ->
                   let plain = List.filter_map
                       (function (Asttypes.Nolabel, a) -> Some a | _ -> None) args
                   in
                   let secret =
                     List.filter_map arg_name plain |> List.find_opt secret_name
                   in
                   (match secret with
                    | None -> []
                    | Some name ->
                      [ finding ~rule:"ct-equality" ~file ~loc:e.pexp_loc
                          "(%s) on secret-bearing value `%s` leaks timing on the first \
                           differing byte; use Dd_crypto.Ct.equal" op name ]))
              | _ -> [])
           structure) }

(* === R2: sans-io ======================================================== *)

(* Node and protocol code must be deterministic given its inputs: the
   simulator replays elections from a seed, so ambient randomness,
   wall-clock time and console IO are confined to lib/sim, bin/ and
   bench/. *)
let banned_io_modules = [ "Random"; "Unix" ]

(* Real-file IO is confined to the Dd_store file backend: node code
   persists state through the injected sans-IO [Dd_store.Device], so
   the simulator can crash and cold-restart nodes deterministically.
   The linter itself (lib/analysis) reads source files by nature. *)
let banned_file_io_modules = [ "In_channel"; "Out_channel" ]

let banned_file_io_values =
  [ "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen";
    "Sys.rename"; "Sys.remove"; "Sys.file_exists"; "Sys.readdir";
    "Sys.mkdir"; "Sys.rmdir"; "Sys.is_directory"; "Sys.command" ]

let file_io_exempt p =
  under [ "lib"; "storage"; "file_device.ml" ] p || under [ "lib"; "analysis" ] p

(* The serving runtime's OS boundary: the one module allowed to open
   Unix sockets, mirroring the File_device exemption for disk IO. The
   rest of lib/serve speaks the sans-IO Transport.conn record, and
   ambient time / console IO stay banned even here. *)
let socket_io_exempt p = under [ "lib"; "serve"; "socket.ml" ] p

let banned_io_values =
  [ "Sys.time"; "Unix.gettimeofday"; "Unix.time";
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "stdout"; "stderr"; "read_line" ]

let sans_io =
  { name = "sans-io";
    short = "no ambient randomness / wall-clock / console IO outside lib/sim";
    applies = (fun p -> under [ "lib" ] p && not (under [ "lib"; "sim" ] p));
    check =
      (fun ~file structure ->
         over_expressions ~file
           (fun ~file e ->
              match e.pexp_desc with
              | Pexp_ident { txt; _ } ->
                let head =
                  match flatten txt with
                  | "Stdlib" :: m :: _ -> m
                  | m :: _ :: _ -> m
                  | _ -> ""
                in
                if
                  List.mem head banned_io_modules
                  && not (head = "Unix" && socket_io_exempt file)
                then
                  [ finding ~rule:"sans-io" ~file ~loc:e.pexp_loc
                      "`%s` is ambient nondeterminism; randomness must come from the \
                       injected Dd_crypto.Drbg, time from the injected `now`"
                      (String.concat "." (flatten txt)) ]
                else if List.exists (matches_name txt) banned_io_values then
                  [ finding ~rule:"sans-io" ~file ~loc:e.pexp_loc
                      "`%s` does IO or reads ambient state; node code is sans-IO — route \
                       effects through the env record (or move this to lib/sim, bin/ or bench/)"
                      (String.concat "." (flatten txt)) ]
                else if
                  (not (file_io_exempt file))
                  && (List.mem head banned_file_io_modules
                      || List.exists (matches_name txt) banned_file_io_values)
                then
                  [ finding ~rule:"sans-io" ~file ~loc:e.pexp_loc
                      "`%s` touches the filesystem; real-file IO is confined to the \
                       Dd_store file backend (lib/storage/file_device.ml) — persist \
                       through the injected Dd_store.Device instead"
                      (String.concat "." (flatten txt)) ]
                else []
              | _ -> [])
           structure) }

(* === R3: exception-hygiene ============================================= *)

(* A Byzantine peer controls every field of every message a node
   handles; a raising lookup or assert in a handler is a remote crash
   (loss of liveness beyond the fv/fb budget). Handlers must use _opt
   variants and drop or reject malformed input explicitly. *)
let banned_raising =
  [ ("Hashtbl.find", "Hashtbl.find_opt");
    ("List.find", "List.find_opt");
    ("List.assoc", "List.assoc_opt");
    ("List.hd", "a match on the list");
    ("List.tl", "a match on the list");
    ("List.nth", "List.nth_opt");
    ("Option.get", "a match on the option");
    ("Array.find", "Array.find_opt");
    ("Queue.pop", "Queue.take_opt");
    ("Queue.peek", "Queue.peek_opt");
    ("int_of_string", "int_of_string_opt");
    ("failwith", "an explicit drop/reject of the message");
    ("invalid_arg", "an explicit drop/reject of the message") ]

let exception_hygiene =
  { name = "exception-hygiene";
    short = "no raising APIs in Byzantine-facing handler code; use _opt + explicit drop";
    applies = (fun p -> under [ "lib"; "core" ] p || under [ "lib"; "consensus" ] p);
    check =
      (fun ~file structure ->
         over_expressions ~file
           (fun ~file e ->
              match e.pexp_desc with
              | Pexp_assert
                  { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
                ->
                (* [assert false] marks dead code; reaching it is a logic
                   bug, not an input-validation failure *)
                []
              | Pexp_assert _ ->
                [ finding ~rule:"exception-hygiene" ~file ~loc:e.pexp_loc
                    "assert raises on adversarial input; validate and drop/reject \
                     explicitly instead" ]
              | Pexp_ident { txt; _ } ->
                (match
                   List.find_opt (fun (b, _) -> matches_name txt b) banned_raising
                 with
                 | Some (b, instead) ->
                   [ finding ~rule:"exception-hygiene" ~file ~loc:e.pexp_loc
                       "`%s` raises on missing/malformed input — a Byzantine peer can \
                        crash this node; use %s" b instead ]
                 | None -> [])
              | _ -> [])
           structure) }

(* === R4: wire-exhaustive =============================================== *)

let wire_type_names = [ "vc_msg"; "bb_msg" ]

(* Constructor names mentioned anywhere in a case pattern. *)
let rec pattern_constructors p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, sub) ->
    last_component txt
    :: (match sub with Some (_, q) -> pattern_constructors q | None -> [])
  | Ppat_or (a, b) -> pattern_constructors a @ pattern_constructors b
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_exception q | Ppat_open (_, q) ->
    pattern_constructors q
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_constructors ps
  | Ppat_record (fields, _) -> List.concat_map (fun (_, q) -> pattern_constructors q) fields
  | _ -> []

(* Is the toplevel of the pattern a catch-all (possibly aliased or
   or-combined with one)? *)
let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> catch_all q
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

let wire_exhaustive ~constructors =
  { name = "wire-exhaustive";
    short = "no wildcard arms in matches over protocol message types";
    applies = (fun _ -> true);
    check =
      (fun ~file structure ->
         over_expressions ~file
           (fun ~file e ->
              let cases =
                match e.pexp_desc with
                | Pexp_match (_, cases) -> cases
                | Pexp_function cases -> cases
                | _ -> []
              in
              if cases = [] then []
              else begin
                let over_wire =
                  List.exists
                    (fun c ->
                       List.exists (fun n -> List.mem n constructors)
                         (pattern_constructors c.pc_lhs))
                    cases
                in
                if not over_wire then []
                else
                  List.filter_map
                    (fun c ->
                       if catch_all c.pc_lhs then
                         Some
                           (finding ~rule:"wire-exhaustive" ~file ~loc:c.pc_lhs.ppat_loc
                              "wildcard arm in a match over a wire-message type silently \
                               discards any future variant; list the constructors explicitly")
                       else None)
                    cases
              end)
           structure) }

(* === the variable-time surface (R7 sinks) ================================= *)

(* The documented variable-time surface of the group layer
   (lib/group/curve.mli "timing contract"): [Curve.mul_vartime],
   [Curve.mul2], [Curve.msm], and the randomized batch verifiers
   built on them. Their running time depends on their scalar
   inputs (wNAF digit patterns, GLV splits, bucket occupancy), so only
   public data — signatures, proof transcripts, published commitments
   and their openings — may flow in. The scalar field's extended-Euclid
   inverse [Modular.inv_vartime] is on it too: its step count depends on
   its argument (lib/bignum/modular.mli). R7 [secret-taint] reports any
   secret reaching one; secret-dependent scalars must use the
   fixed-window [Curve.mul] / [mul_base_table] paths instead. *)
let vartime_callees =
  [ "mul_vartime"; "mul2"; "msm";
    "verify_batch"; "verify_batch_find"; "inv_vartime" ]

(* === R6: domain-safe-state ============================================= *)

(* The arithmetic stack (lib/bignum, lib/crypto, lib/group, lib/sig)
   runs on every domain of the parallel executor, so module-level
   mutable state there is a data race waiting to happen. Per-domain
   scratch belongs in [Domain.DLS]; compute-once caches belong in
   [Dd_parallel.Once] cells or [Atomic] compare-and-set publishes —
   all three are invisible to this rule. What it flags is a top-level
   [let] whose right-hand side allocates bare shared mutable state
   ([ref], [Array.make], [Bytes.create], [Hashtbl.create], ...) or a
   top-level [lazy] (racing [Lazy.force] raises in OCaml 5).
   Init-once-then-read-only tables can justify themselves with a
   [lint: allow domain-safe-state <why>] comment. *)

let mutable_creators =
  [ "ref"; "Hashtbl.create"; "Array.make"; "Array.create_float";
    "Bytes.create"; "Bytes.make"; "Buffer.create"; "Queue.create";
    "Stack.create"; "Mutex.create"; "Condition.create" ]

(* Peel wrappers that do not change what value the binding holds. *)
let rec binding_body e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_letmodule (_, _, e) | Pexp_sequence (_, e) ->
    binding_body e
  | Pexp_let (_, _, e) -> binding_body e
  | _ -> e

let domain_safe_state =
  { name = "domain-safe-state";
    short = "no top-level mutable state or lazy in the domain-shared arithmetic stack";
    applies =
      (fun p ->
         under [ "lib"; "bignum" ] p || under [ "lib"; "crypto" ] p
         || under [ "lib"; "group" ] p || under [ "lib"; "sig" ] p);
    check =
      (fun ~file structure ->
         (* walk top-level bindings only (module-level state); descend
            into nested modules, whose bindings are just as global *)
         let acc = ref [] in
         let rec walk_structure items =
           List.iter
             (fun item ->
                match item.pstr_desc with
                | Pstr_value (_, bindings) ->
                  List.iter
                    (fun vb ->
                       let body = binding_body vb.pvb_expr in
                       match body.pexp_desc with
                       | Pexp_lazy _ ->
                         acc :=
                           finding ~rule:"domain-safe-state" ~file ~loc:body.pexp_loc
                             "top-level `lazy` races under multiple domains \
                              (Lazy.force raises); use a Dd_parallel.Once cell"
                           :: !acc
                       | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
                         when List.exists (matches_name txt) mutable_creators ->
                         acc :=
                           finding ~rule:"domain-safe-state" ~file ~loc:body.pexp_loc
                             "top-level `%s` is shared mutable state; every domain \
                              sees it — move per-call scratch into Domain.DLS, or \
                              publish compute-once results via Dd_parallel.Once / \
                              Atomic"
                             (String.concat "." (flatten txt))
                           :: !acc
                       | _ -> ())
                    bindings
                | Pstr_module { pmb_expr; _ } -> walk_module_expr pmb_expr
                | Pstr_recmodule mbs ->
                  List.iter (fun { pmb_expr; _ } -> walk_module_expr pmb_expr) mbs
                | _ -> ())
             items
         and walk_module_expr me =
           match me.pmod_desc with
           | Pmod_structure items -> walk_structure items
           | Pmod_functor (_, body) -> walk_module_expr body
           | Pmod_constraint (me, _) -> walk_module_expr me
           | _ -> ()
         in
         walk_structure structure;
         List.rev !acc) }

(* === R8: domain-escape ================================================== *)

(* The static complement to R6. R6 forbids shared module-level state
   in the arithmetic stack; R8 looks at the other side of the race:
   the closures handed to [Dd_parallel.Pool.parallel_for/map], which
   run concurrently on every domain of the pool. Anything such a
   closure *captures* is shared. The pool's contract
   (lib/parallel/pool.mli) allows exactly one kind of captured write —
   disjoint, index-addressed slots, recognizable syntactically because
   the index chain mentions a name bound inside the closure (the
   element/chunk parameter or something derived from it). Everything
   else — [:=] on a captured ref, [Hashtbl.replace] on a captured
   table, [Buffer.add_*], a captured-array write at a
   closure-independent index (the pre-PR-5 shared-scratch pattern) —
   is a data race by construction. Reads or writes of *top-level*
   mutable bindings of the same module are flagged too: the remedies
   ([Atomic], [Domain.DLS], [Dd_parallel.Once]) never match these
   syntactic shapes, so the shipped patterns pass untouched. *)

let parallel_entry_points = [ "parallel_for"; "parallel_map" ]

let mutators_always =
  [ (":=", "assignment to a captured ref");
    ("incr", "increment of a captured ref");
    ("decr", "decrement of a captured ref");
    ("Hashtbl.add", "Hashtbl mutation"); ("Hashtbl.replace", "Hashtbl mutation");
    ("Hashtbl.remove", "Hashtbl mutation"); ("Hashtbl.reset", "Hashtbl mutation");
    ("Hashtbl.clear", "Hashtbl mutation");
    ("Buffer.add_string", "Buffer mutation"); ("Buffer.add_bytes", "Buffer mutation");
    ("Buffer.add_char", "Buffer mutation"); ("Buffer.add_subbytes", "Buffer mutation");
    ("Buffer.clear", "Buffer mutation"); ("Buffer.reset", "Buffer mutation");
    ("Queue.push", "Queue mutation"); ("Queue.add", "Queue mutation");
    ("Queue.pop", "Queue mutation"); ("Queue.take", "Queue mutation");
    ("Queue.clear", "Queue mutation");
    ("Stack.push", "Stack mutation"); ("Stack.pop", "Stack mutation");
    ("Bytes.fill", "Bytes mutation"); ("Bytes.blit", "Bytes mutation");
    ("Array.fill", "array mutation"); ("Array.blit", "array mutation") ]

let indexed_setters =
  [ "Array.set"; "Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set" ]

let indexed_getters =
  [ "Array.get"; "Array.unsafe_get"; "Bytes.get"; "Bytes.unsafe_get";
    "String.get"; "String.unsafe_get" ]

module SS = Set.Make (String)

let pattern_var_set p =
  let acc = ref SS.empty in
  let it =
    { Ast_iterator.default_iterator with
      pat =
        (fun it p ->
           (match p.ppat_desc with
            | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := SS.add txt !acc
            | _ -> ());
           Ast_iterator.default_iterator.pat it p) }
  in
  it.pat it p;
  !acc

(* Base identifier and index chain of a mutation target:
   [a.(i).(j)] -> (a, [i; j]); record projections pass through. *)
let rec target_chain e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> Some (v, [])
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Asttypes.Nolabel, tgt) :: idx)
    when List.exists (matches_name txt) indexed_getters ->
    (match target_chain tgt with
     | Some (v, idxs) ->
       Some (v, idxs @ List.filter_map (function (Asttypes.Nolabel, i) -> Some i | _ -> None) idx)
     | None -> None)
  | Pexp_field (r, _) -> target_chain r
  | Pexp_constraint (e, _) -> target_chain e
  | _ -> None

(* Does [e] mention any identifier from [bound]? *)
let mentions_bound bound e =
  let hit = ref false in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun it e ->
           (match e.pexp_desc with
            | Pexp_ident { txt = Longident.Lident v; _ } when SS.mem v bound -> hit := true
            | _ -> ());
           Ast_iterator.default_iterator.expr it e) }
  in
  it.expr it e;
  !hit

(* Names of same-file top-level bindings holding bare mutable state
   (the state R6 bans in the arithmetic stack but other directories
   may legally hold — until a parallel closure reaches for it). *)
let top_level_mutables structure =
  let acc = ref SS.empty in
  let rec walk items =
    List.iter
      (fun item ->
         match item.pstr_desc with
         | Pstr_value (_, bindings) ->
           List.iter
             (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } ->
                  let body = binding_body vb.pvb_expr in
                  (match body.pexp_desc with
                   | Pexp_lazy _ -> acc := SS.add txt !acc
                   | Pexp_apply ({ pexp_desc = Pexp_ident { txt = c; _ }; _ }, _)
                     when List.exists (matches_name c) mutable_creators ->
                     acc := SS.add txt !acc
                   | _ -> ())
                | _ -> ())
             bindings
         | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure items; _ }; _ } ->
           walk items
         | _ -> ())
      items
  in
  walk structure;
  !acc

(* Scan one closure body. [bound] = names bound inside the closure so
   far (its parameters, then everything let-/pattern-bound within);
   anything not in [bound] is captured. *)
let scan_closure_body ~file ~entry ~top_mutable ~params body =
  let acc = ref [] in
  let add ~loc fmt = Printf.ksprintf (fun m ->
      acc := finding ~rule:"domain-escape" ~file ~loc "%s" m :: !acc) fmt
  in
  let rec go bound e =
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let vars =
        List.fold_left (fun s vb -> SS.union s (pattern_var_set vb.pvb_pat)) SS.empty vbs
      in
      let rhs_bound = match rf with Asttypes.Recursive -> SS.union bound vars | _ -> bound in
      List.iter (fun vb -> go rhs_bound vb.pvb_expr) vbs;
      go (SS.union bound vars) body
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (go bound) default;
      go (SS.union bound (pattern_var_set pat)) body
    | Pexp_function cases ->
      List.iter
        (fun c ->
           let bound = SS.union bound (pattern_var_set c.pc_lhs) in
           Option.iter (go bound) c.pc_guard;
           go bound c.pc_rhs)
        cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      go bound scrut;
      List.iter
        (fun c ->
           let bound = SS.union bound (pattern_var_set c.pc_lhs) in
           Option.iter (go bound) c.pc_guard;
           go bound c.pc_rhs)
        cases
    | Pexp_for (pat, lo, hi, _, body) ->
      go bound lo; go bound hi;
      go (SS.union bound (pattern_var_set pat)) body
    | Pexp_setfield (r, _, v) ->
      (match target_chain r with
       | Some (base, _) when not (SS.mem base bound) ->
         add ~loc:e.pexp_loc
           "closure passed to `%s` sets a mutable field of captured `%s`; \
            every domain shares it — use Atomic state or per-domain Domain.DLS"
           entry base
       | _ -> ());
      go bound r; go bound v
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let plain = List.filter_map
          (function (Asttypes.Nolabel, a) -> Some a | _ -> None) args
      in
      (match List.find_opt (fun (m, _) -> matches_name txt m) mutators_always with
       | Some (_, what) ->
         (match plain with
          | tgt :: _ ->
            (match target_chain tgt with
             | Some (base, _) when not (SS.mem base bound) ->
               add ~loc:e.pexp_loc
                 "closure passed to `%s` performs %s on captured `%s`; parallel \
                  bodies may only write disjoint index-addressed slots — use \
                  Atomic, Domain.DLS, or return values and combine them after \
                  the parallel call"
                 entry what base
             | _ -> ())
          | [] -> ())
       | None ->
         if List.exists (matches_name txt) indexed_setters then
           match plain with
           | tgt :: rest ->
             let indices = match List.rev rest with
               | _value :: ridx -> List.rev ridx
               | [] -> []
             in
             (match target_chain tgt with
              | Some (base, chain_idx) when not (SS.mem base bound) ->
                if not (List.exists (mentions_bound bound) (chain_idx @ indices)) then
                  add ~loc:e.pexp_loc
                    "closure passed to `%s` writes captured `%s` at an index \
                     independent of the closure's parameters — a shared-slot \
                     race; derive the index from the closure parameter \
                     (disjoint writes) or use Atomic/Domain.DLS"
                    entry base
              | _ -> ())
           | [] -> ());
      List.iter (fun (_, a) -> go bound a) args
    | Pexp_ident { txt = Longident.Lident v; _ }
      when (not (SS.mem v bound)) && SS.mem v top_mutable ->
      add ~loc:e.pexp_loc
        "closure passed to `%s` reaches top-level mutable `%s`; every domain \
         shares it — publish via Dd_parallel.Once / Atomic, or move scratch \
         into Domain.DLS"
        entry v
    | _ ->
      let it =
        { Ast_iterator.default_iterator with expr = (fun _ c -> go bound c) }
      in
      Ast_iterator.default_iterator.expr it e
  in
  go params body;
  !acc

(* Peel wrappers and collect a closure literal's parameters + body. *)
let rec closure_literal e =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
    (match closure_literal body with
     | Some (params, inner) -> Some (SS.union (pattern_var_set pat) params, inner)
     | None -> Some (pattern_var_set pat, body))
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> closure_literal e
  | _ -> None

let domain_escape =
  { name = "domain-escape";
    short = "closures given to Dd_parallel.Pool must not mutate captured or top-level state";
    applies = (fun _ -> true);
    check =
      (fun ~file structure ->
         let top_mutable = top_level_mutables structure in
         over_expressions ~file
           (fun ~file e ->
              match e.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
                when List.mem (last_component txt) parallel_entry_points ->
                let entry = String.concat "." (flatten txt) in
                List.concat_map
                  (fun (_, a) ->
                     match closure_literal a with
                     | Some (params, body) ->
                       scan_closure_body ~file ~entry ~top_mutable ~params body
                     | None ->
                       (match a.pexp_desc with
                        | Pexp_function cases ->
                          List.concat_map
                            (fun c ->
                               scan_closure_body ~file ~entry ~top_mutable
                                 ~params:(pattern_var_set c.pc_lhs) c.pc_rhs)
                            cases
                        | _ -> []))
                  args
              | _ -> [])
           structure) }

let all ~wire_constructors =
  [ ct_equality; sans_io; exception_hygiene;
    wire_exhaustive ~constructors:wire_constructors; domain_safe_state; domain_escape ]
