(* Rule R7 `secret-taint`: interprocedural forward taint from secret
   sources to the surfaces where a secret must never arrive.

   Sources (facts, not just names):
   - DRBG outputs ([Drbg.bytes]) — every secret
     in this system is ultimately drawn from a seeded DRBG;
   - any [val] annotated [(* lint: secret *)] in its [.mli]
     (EA msk derivations, VSS dealing, ...);
   - any record field annotated [(* lint: secret *)] in a [.mli]
     (trustee share fields of [Ea.setup_chunks]' output, share payloads);
   - a name heuristic: identifiers and fields named
     [sk]/[witness]/[nonce]/[msk]/[seed]/[secret] (or suffixed).

   Sinks:
   - the variable-time group surface ([Rules.vartime_callees]);
   - wire encoders ([Dd_codec.Wire.put_*]);
   - polymorphic / early-exit comparison ([=], [compare],
     [String.equal], ... — R1's operator set, taint-directed);
   - formatted output ([Printf.printf], [Format.asprintf], ...).

   Declassification: a [val] annotated [(* lint: public *)] in its
   [.mli] states that its *result* is public even when its inputs are
   secret — one-way functions ([Sha256.digest], [Hmac.mac]),
   ciphertext ([Aes128]), and computing in the exponent
   ([Curve.mul_base_table], [mul_base_batch]: a public key or
   commitment does not reveal its scalar under DL). Their results carry no taint; their bodies
   are still analyzed.

   Propagation is {!Dataflow} (let/pattern/aggregate flow) plus
   per-function summaries over the {!Callgraph}: for each function,
   which parameter taints the result, whether the result is tainted
   unconditionally, and which parameter reaches which sink
   (transitively). Summaries are iterated to a fixpoint, then a
   reporting pass walks each lib/ file top to bottom. *)

open Parsetree
module F = Findings

let rule_name = "secret-taint"
let short = "no secret-tainted value may reach vartime/codec/compare/format sinks"

(* findings are reported where the sink is; only lib/ is in scope *)
let scope path = Rules.under [ "lib" ] path

(* --- facts -------------------------------------------------------------- *)

type facts = {
  source_funs : (string, string) Hashtbl.t;   (* "Drbg.bytes" -> description *)
  secret_fields : (string, string) Hashtbl.t; (* field label -> description *)
  public_funs : (string, unit) Hashtbl.t;     (* declassified "Sha256.digest" *)
}

let builtin_sources =
  [ ("Drbg.bytes", "DRBG output") ]

(* --- .mli annotation scan ----------------------------------------------- *)

(* [(* lint: secret *)] / [(* lint: public *)] in an interface declare
   the next (or same-line) [val x] or record field [x : t] as a taint
   source / a declassified result. The scan is textual, like
   [Suppress]: comments never reach the parsetree. *)

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let find_sub s sub start =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go start

(* Token scan from [pos]: skips whitespace and (non-nested) comments,
   reads up to [limit] word tokens plus the first non-word punctuation
   after each, e.g. ["val"; "bytes"] or ["data"; ":"]. *)
let tokens_from s pos limit =
  let n = String.length s in
  let rec skip i =
    if i >= n then i
    else if s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r' then
      skip (i + 1)
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then begin
      match find_sub s "*)" (i + 2) with -1 -> n | j -> skip (j + 2)
    end
    else i
  in
  let rec go i k acc =
    if k = 0 then List.rev acc
    else
      let i = skip i in
      if i >= n then List.rev acc
      else if is_word_char s.[i] then begin
        let j = ref i in
        while !j < n && is_word_char s.[!j] do incr j done;
        go !j (k - 1) (String.sub s i (!j - i) :: acc)
      end
      else go (i + 1) (k - 1) (String.sub s i 1 :: acc)
  in
  go pos (limit * 2) []

type decl = Val of string | Field of string

(* What declaration does the marker at [pos] annotate? Same-line-before
   ([data : string; (* lint: secret *)]) wins over forward scan. *)
let classify_at source pos after_comment =
  let line_start =
    match String.rindex_from_opt source pos '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  let comment_open =
    let rec back i = if i < line_start then line_start
      else if i + 1 < String.length source && source.[i] = '(' && source.[i + 1] = '*'
      then i else back (i - 1)
    in
    back pos
  in
  let before = String.sub source line_start (max 0 (comment_open - line_start)) in
  let of_tokens toks =
    match toks with
    | "val" :: name :: _ when is_word_char name.[0] -> Some (Val name)
    | "mutable" :: name :: ":" :: _ -> Some (Field name)
    | name :: ":" :: _ when is_word_char name.[0] && name <> "val" ->
      Some (Field name)
    | _ -> None
  in
  match of_tokens (tokens_from before 0 4) with
  | Some d -> Some d
  | None -> of_tokens (tokens_from source after_comment 4)

let scan_interface ~modname source =
  let scan_marker marker k acc0 =
    let rec go pos acc =
      match find_sub source marker pos with
      | -1 -> acc
      | i ->
        let after =
          match find_sub source "*)" i with
          | -1 -> String.length source
          | j -> j + 2
        in
        let acc =
          match classify_at source i after with
          | Some d -> k d :: acc
          | None -> acc
        in
        go (i + String.length marker) acc
    in
    go 0 acc0
  in
  let secrets = scan_marker "lint: secret" (fun d -> (`Secret, d)) [] in
  let publics = scan_marker "lint: public" (fun d -> (`Public, d)) [] in
  List.map
    (fun (kind, d) ->
       match d with
       | Val name -> (kind, `Val (modname ^ "." ^ name))
       | Field name -> (kind, `Field name))
    (secrets @ publics)

let facts_of_interfaces interfaces =
  let f =
    { source_funs = Hashtbl.create 16;
      secret_fields = Hashtbl.create 16;
      public_funs = Hashtbl.create 16 }
  in
  List.iter (fun (k, d) -> Hashtbl.replace f.source_funs k d) builtin_sources;
  List.iter
    (fun (path, source) ->
       let modname = Callgraph.module_of_path path in
       List.iter
         (function
           | `Secret, `Val v ->
             Hashtbl.replace f.source_funs v (v ^ " (declared secret)")
           | `Secret, `Field fl ->
             Hashtbl.replace f.secret_fields fl
               ("field `" ^ fl ^ "` (declared secret)")
           | `Public, `Val v -> Hashtbl.replace f.public_funs v ()
           | `Public, `Field _ -> ())
         (scan_interface ~modname source))
    interfaces;
  f

(* --- sinks -------------------------------------------------------------- *)

type sink = { sink_desc : string; remedy : string }

let wire_encoders =
  [ "put_bytes"; "put_varint"; "put_bool"; "put_list"; "put_array"; "put_option" ]

let format_sinks =
  [ "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.asprintf"; "print_string"; "print_endline"; "print_bytes";
    "prerr_string"; "prerr_endline" ]

let sink_of lid =
  let dotted = String.concat "." (Rules.flatten lid) in
  let last = Rules.last_component lid in
  if List.mem last Rules.vartime_callees then
    Some
      { sink_desc = "variable-time `" ^ dotted ^ "`";
        remedy =
          "the vartime surface is public-data only; secret scalars use the \
           comb-table paths (Curve.mul_base_table / mul_base_batch) and are \
           never inverted through Sc.inv_vartime" }
  else
    match Rules.banned_comparison lid with
    | Some op ->
      Some
        { sink_desc = "early-exit comparison `" ^ op ^ "`";
          remedy = "compare secrets with Dd_crypto.Ct.equal" }
    | None ->
      (match List.rev (Rules.flatten lid) with
       | name :: "Wire" :: _ when List.mem name wire_encoders ->
         Some
           { sink_desc = "wire encoder `Wire." ^ name ^ "`";
             remedy =
               "secret material must not be serialized; send a share, a \
                ciphertext or a commitment instead" }
       | _ ->
         if List.exists (Rules.matches_name lid) format_sinks then
           Some
             { sink_desc = "formatted output `" ^ dotted ^ "`";
               remedy = "secret material must not reach printed/logged output" }
         else None)

(* --- summaries ---------------------------------------------------------- *)

type summary = {
  result_from : bool array;        (* parameter i taints the result *)
  result_always : bool;            (* result tainted regardless of arguments *)
  param_sinks : (int * string) list;  (* parameter i reaches this sink *)
}

let summary_equal a b =
  a.result_from = b.result_from && a.result_always = b.result_always
  && a.param_sinks = b.param_sinks

type ctx = {
  facts : facts;
  graph : Callgraph.t;
  summaries : (string, summary) Hashtbl.t;
  mutable findings : F.t list;
}

(* Parameter-provenance markers, threaded through [Dataflow.taint]'s
   origin string with a reserved prefix. *)
let marker i = { Dataflow.origin = "\000" ^ string_of_int i; origin_loc = Location.none }

let marker_index (t : Dataflow.taint) =
  if String.length t.Dataflow.origin > 1 && t.Dataflow.origin.[0] = '\000' then
    int_of_string_opt (String.sub t.Dataflow.origin 1 (String.length t.Dataflow.origin - 1))
  else None

(* Match call-site arguments to declared parameters: positional
   arguments consume [Nolabel] parameters in order, labelled arguments
   match by name. Returns [(param_index, taint) list]. *)
let match_args (params : (Asttypes.arg_label * pattern) list) args =
  let indexed = List.mapi (fun i (l, _) -> (i, l)) params in
  let nolabels = List.filter (fun (_, l) -> l = Asttypes.Nolabel) indexed in
  let next_nolabel = ref nolabels in
  List.filter_map
    (fun (label, _arg, taint) ->
       match label with
       | Asttypes.Nolabel ->
         (match !next_nolabel with
          | (i, _) :: rest ->
            next_nolabel := rest;
            Some (i, taint)
          | [] -> None)
       | Asttypes.Labelled l | Asttypes.Optional l ->
         List.find_map
           (fun (i, pl) ->
              match pl with
              | Asttypes.Labelled l' | Asttypes.Optional l' when l = l' -> Some (i, taint)
              | _ -> None)
           indexed)
    args

(* Taint survives these stdlib calls (value-preserving plumbing). *)
let pass_through =
  [ "^"; "fst"; "snd"; "Fun.id";
    "Bytes.sub"; "Bytes.copy"; "Bytes.cat"; "Bytes.to_string"; "Bytes.of_string";
    "Bytes.unsafe_to_string"; "Bytes.unsafe_of_string"; "Bytes.get";
    "String.sub"; "String.concat"; "String.cat"; "String.get"; "String.init";
    "Array.get"; "Array.sub"; "Array.copy"; "Array.append"; "Array.concat";
    "Array.to_list"; "Array.of_list"; "Array.map"; "Array.mapi";
    "List.hd"; "List.nth"; "List.rev"; "List.append"; "List.concat";
    "List.map"; "List.mapi"; "List.filter"; "List.to_seq";
    "Option.get"; "Option.value"; "Option.some" ]

(* The name heuristic, a source alongside the facts: identifiers and
   fields that look secret-bearing by name. *)
let secret_exact = [ "sk"; "secret"; "witness"; "nonce"; "msk"; "seed" ]
let secret_suffixes = [ "_sk"; "_secret"; "_witness"; "_nonce"; "_msk"; "_seed" ]

let secret_named n =
  let n = String.lowercase_ascii n in
  List.mem n secret_exact || List.exists (Rules.has_suffix n) secret_suffixes

(* Qualify a callee against the current module for fact lookups:
   [Lident f] inside Ea -> "Ea.f"; [M.f] (however deep) -> "M.f". *)
let fact_key ~current_module lid =
  match List.rev (Rules.flatten lid) with
  | [] -> ""
  | [ f ] -> current_module ^ "." ^ f
  | f :: m :: _ -> m ^ "." ^ f

type mode =
  | Summarize of (int * string) list ref  (* collect param -> sink hits *)
  | Report of string                      (* reporting pass over this file *)

(* The limb-level arithmetic kernels compare loop indices, and the
   vartime recodings ([Sc.bit_length], the wNAF and MSM digit walks)
   compare limbs and digits. Mirroring R1's scope, files under
   lib/bignum and lib/group are exempt from the *comparison* sink:
   without this, every secret scalar entering [Curve]'s recodings would
   transitively "reach" a [<>] inside those loops. The vartime, wire-encoder
   and format sinks still apply inside the kernels. *)
let comparison_exempt path =
  Rules.under [ "lib"; "bignum" ] path || Rules.under [ "lib"; "group" ] path

let hooks_for ctx ~current_module ~cmp_exempt ~mode =
  let report ~loc fmt =
    Printf.ksprintf
      (fun msg ->
         match mode with
         | Report file ->
           ctx.findings <- F.make ~rule:rule_name ~file ~loc msg :: ctx.findings
         | Summarize _ -> ())
      fmt
  in
  let describe (t : Dataflow.taint) =
    match marker_index t with
    | Some _ -> "parameter"   (* not printed: markers never reach Report mode *)
    | None -> t.Dataflow.origin
  in
  let record_param_sink t sink_desc =
    match mode, marker_index t with
    | Summarize acc, Some i ->
      if not (List.mem (i, sink_desc) !acc) then acc := (i, sink_desc) :: !acc
    | _ -> ()
  in
  let ident lid loc =
    let key = fact_key ~current_module lid in
    match Hashtbl.find_opt ctx.facts.source_funs key with
    | Some desc -> Some { Dataflow.origin = desc; origin_loc = loc }
    | None ->
      let last = Rules.last_component lid in
      if secret_named last then
        Some { Dataflow.origin = "`" ^ last ^ "` (secret-named)"; origin_loc = loc }
      else None
  in
  let field lid loc =
    let last = Rules.last_component lid in
    match Hashtbl.find_opt ctx.facts.secret_fields last with
    | Some desc -> Some { Dataflow.origin = desc; origin_loc = loc }
    | None ->
      if secret_named last then
        Some { Dataflow.origin = "field `" ^ last ^ "` (secret-named)"; origin_loc = loc }
      else None
  in
  let call ~eval:_ ~env:_ ~callee ~loc ~args =
    let tainted_args = List.filter_map (fun (_, _, t) -> t) args in
    let sink =
      match sink_of callee with
      | Some _ when cmp_exempt && Rules.banned_comparison callee <> None -> None
      | s -> s
    in
    (* 1. direct sinks *)
    match sink with
    | Some { sink_desc; remedy } ->
      List.iter
        (fun t ->
           record_param_sink t sink_desc;
           if marker_index t = None then
             report ~loc "secret-tainted value (%s) reaches %s; %s"
               (describe t) sink_desc remedy)
        tainted_args;
      None
    | None -> begin
      (* 2. known source functions / annotated vals *)
      let key = fact_key ~current_module callee in
      match Hashtbl.find_opt ctx.facts.source_funs key with
      | Some desc -> Some { Dataflow.origin = desc; origin_loc = loc }
      | None ->
        (* 3. in-program callee: apply its summary *)
        (match Callgraph.resolve ctx.graph ~current:current_module callee with
         | Some fn ->
           let s =
             match Hashtbl.find_opt ctx.summaries fn.Callgraph.fq with
             | Some s -> s
             | None ->
               { result_from = [||]; result_always = false; param_sinks = [] }
           in
           let mapped = match_args fn.Callgraph.params args in
           List.iter
             (fun (i, taint) ->
                match taint with
                | None -> ()
                | Some t ->
                  List.iter
                    (fun (j, sink_desc) ->
                       if i = j then begin
                         record_param_sink t sink_desc;
                         if marker_index t = None then
                           report ~loc
                             "secret-tainted value (%s) flows via `%s` into %s"
                             (describe t) fn.Callgraph.fq sink_desc
                       end)
                    s.param_sinks)
             mapped;
           if Hashtbl.mem ctx.facts.public_funs key
           || Hashtbl.mem ctx.facts.public_funs fn.Callgraph.fq then None
           else if s.result_always then
             Some { Dataflow.origin = "`" ^ fn.Callgraph.fq ^ "` result"; origin_loc = loc }
           else
             List.find_map
               (fun (i, taint) ->
                  if i < Array.length s.result_from && s.result_from.(i) then taint
                  else None)
               mapped
         | None ->
           (* 4. unknown callee: declassified, pass-through, or kills taint *)
           if Hashtbl.mem ctx.facts.public_funs key then None
           else if List.exists (Rules.matches_name callee) pass_through then
             List.find_map (fun (_, _, t) -> t) args
           else None)
    end
  in
  { Dataflow.ident; field; call }

(* --- summary computation and fixpoint ----------------------------------- *)

let bind_params hooks params taint_for =
  List.fold_left
    (fun (i, env) (_, pat) ->
       let env = Dataflow.bind_pattern hooks env pat (taint_for i) ~rhs:None in
       (i + 1, env))
    (0, Dataflow.Env.empty) params
  |> snd

let compute_summary ctx fn =
  let current_module =
    match String.rindex_opt fn.Callgraph.fq '.' with
    | Some i -> String.sub fn.Callgraph.fq 0 i
    | None -> fn.Callgraph.unit_module
  in
  let n = List.length fn.Callgraph.params in
  let sinks = ref [] in
  let cmp_exempt =
    comparison_exempt fn.Callgraph.loc.Location.loc_start.Lexing.pos_fname
  in
  let hooks = hooks_for ctx ~current_module ~cmp_exempt ~mode:(Summarize sinks) in
  (* base pass: no parameter markers -> unconditional result taint *)
  let base = Dataflow.eval hooks (bind_params hooks fn.Callgraph.params (fun _ -> None))
      fn.Callgraph.body in
  let result_always =
    match base with Some t -> marker_index t = None | None -> false
  in
  let result_from = Array.make n false in
  for i = 0 to n - 1 do
    let env =
      bind_params hooks fn.Callgraph.params (fun j -> if i = j then Some (marker i) else None)
    in
    match Dataflow.eval hooks env fn.Callgraph.body with
    | Some t when marker_index t = Some i -> result_from.(i) <- true
    | _ -> ()
  done;
  { result_from; result_always;
    param_sinks = List.sort_uniq compare !sinks }

let fixpoint ctx =
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds < 12 do
    changed := false;
    incr rounds;
    List.iter
      (fun fn ->
         let s = compute_summary ctx fn in
         match Hashtbl.find_opt ctx.summaries fn.Callgraph.fq with
         | Some old when summary_equal old s -> ()
         | _ ->
           Hashtbl.replace ctx.summaries fn.Callgraph.fq s;
           changed := true)
      (Callgraph.functions ctx.graph)
  done

(* --- reporting pass ----------------------------------------------------- *)

let rec report_structure ctx ~file ~current_module genv items =
  let hooks =
    hooks_for ctx ~current_module ~cmp_exempt:(comparison_exempt file)
      ~mode:(Report file)
  in
  List.fold_left
    (fun genv item ->
       match item.pstr_desc with
       | Pstr_value (_, vbs) ->
         List.fold_left
           (fun genv vb ->
              (* functions are walked by [eval]'s [Pexp_fun] case with
                 the module-global taint captured; plain values extend
                 the module-global environment *)
              let t = Dataflow.eval hooks genv vb.pvb_expr in
              Dataflow.bind_pattern hooks genv vb.pvb_pat t ~rhs:(Some vb.pvb_expr))
           genv vbs
       | Pstr_eval (e, _) ->
         ignore (Dataflow.eval hooks genv e);
         genv
       | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
         report_module_expr ctx ~file ~current_module:(current_module ^ "." ^ name)
           genv pmb_expr;
         genv
       | Pstr_recmodule mbs ->
         List.iter
           (fun mb ->
              match mb.pmb_name.Asttypes.txt with
              | Some name ->
                report_module_expr ctx ~file
                  ~current_module:(current_module ^ "." ^ name) genv mb.pmb_expr
              | None -> ())
           mbs;
         genv
       | _ -> genv)
    genv items

and report_module_expr ctx ~file ~current_module genv me =
  match me.pmod_desc with
  | Pmod_structure items ->
    ignore (report_structure ctx ~file ~current_module genv items)
  | Pmod_functor (_, body) -> report_module_expr ctx ~file ~current_module genv body
  | Pmod_constraint (me, _) -> report_module_expr ctx ~file ~current_module genv me
  | _ -> ()

(* --- entry point -------------------------------------------------------- *)

let run ~files ~interfaces =
  let facts = facts_of_interfaces interfaces in
  let graph = Callgraph.build files in
  let ctx = { facts; graph; summaries = Hashtbl.create 256; findings = [] } in
  fixpoint ctx;
  List.iter
    (fun (path, structure) ->
       if scope path then begin
         let m = Callgraph.module_of_path path in
         ignore
           (report_structure ctx ~file:path ~current_module:m Dataflow.Env.empty
              structure)
       end)
    files;
  F.sort ctx.findings
