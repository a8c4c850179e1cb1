(* R9 unused-export. Exports are the [val]s of the lib/ interfaces,
   nested module signatures included; each caller source is walked
   with its module scope (local aliases and nested structures, [open],
   [include]) so that a reference resolves to the export it names. The
   resolution errs towards finding a caller: local value bindings do
   not shadow an [open]. *)

open Parsetree

let rule_name = "unused-export"

let short =
  "every val in a lib/ .mli needs a caller outside its unit; a test-only one an allow"

type export = {
  file : string;
  loc : Location.t;
  mutable called : bool;       (* referenced outside its unit, not from a test *)
  mutable tests : string list; (* test files referencing it *)
}

type tables = {
  exports : (string, export) Hashtbl.t;       (* "Voter.Pool.latencies" *)
  aliases : (string, string list) Hashtbl.t;  (* "Curve.Nat" -> ["Dd_bignum"; "Nat"] *)
  modules : (string, unit) Hashtbl.t;         (* "Voter", "Voter.Pool" *)
}

let dotted = String.concat "."

let rec harvest tb ~file path items =
  Hashtbl.replace tb.modules (dotted path) ();
  List.iter
    (fun item ->
       match item.psig_desc with
       | Psig_value vd ->
         Hashtbl.replace tb.exports (dotted (path @ [ vd.pval_name.txt ]))
           { file; loc = vd.pval_loc; called = false; tests = [] }
       | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ } ->
         (match pmd_type.pmty_desc with
          | Pmty_signature items -> harvest tb ~file (path @ [ name ]) items
          | Pmty_alias { txt; _ } ->
            Hashtbl.replace tb.aliases (dotted (path @ [ name ])) (Rules.flatten txt)
          | _ -> ())
       | _ -> ())
    items

type scope = {
  locals : (string * string list) list;  (* module name -> resolved path *)
  opens : string list list;              (* innermost first *)
  here : string list;                    (* the module being walked *)
}

(* A module path as written in [sc]: a local name, a module of an open
   one, or a unit behind library wrappers ([Ddemos.], [Dd_serve.]) and
   the module aliases interfaces declare ([Curve.Nat]). *)
let resolve tb sc path =
  let rec unit_path = function
    | u :: m :: rest when Hashtbl.mem tb.aliases (u ^ "." ^ m) ->
      unit_path (Hashtbl.find tb.aliases (u ^ "." ^ m) @ rest)
    | u :: _ as p when Hashtbl.mem tb.modules u -> p
    | _ :: tl -> unit_path tl
    | [] -> []
  in
  match path with
  | [] -> []
  | head :: rest ->
    match List.assoc_opt head sc.locals with
    | Some target -> target @ rest
    | None ->
      match List.find_opt (fun o -> Hashtbl.mem tb.modules (dotted (o @ [ head ]))) sc.opens with
      | Some o -> o @ path
      | None -> unit_path path

(* Record the references of one caller source. *)
let scan tb ~file structure =
  let unit_name = Callgraph.module_of_path file in
  let test = Rules.under [ "test" ] file in
  let use fq (e : export) =
    if not (String.starts_with ~prefix:(unit_name ^ ".") fq) then
      if not test then e.called <- true
      else if not (List.mem file e.tests) then e.tests <- file :: e.tests
  in
  let mark path name =
    let fq = dotted (path @ [ name ]) in
    Option.iter (use fq) (Hashtbl.find_opt tb.exports fq)
  in
  let mark_all path =
    let p = dotted path ^ "." in
    Hashtbl.iter (fun fq e -> if String.starts_with ~prefix:p fq then use fq e) tb.exports
  in
  let sc = ref { locals = []; opens = []; here = [ unit_name ] } in
  let scoped f = let saved = !sc in f (); sc := saved in
  let path_of me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> Some (resolve tb !sc (Rules.flatten txt))
    | _ -> None
  in
  let open_ me = Option.iter (fun p -> sc := { !sc with opens = p :: !sc.opens }) (path_of me) in
  let bind name me =
    let target = Option.value (path_of me) ~default:(!sc.here @ [ name ]) in
    sc := { !sc with locals = (name, target) :: !sc.locals }
  in
  let default = Ast_iterator.default_iterator in
  let it =
    { default with
      structure = (fun it items -> scoped (fun () -> default.structure it items));
      structure_item =
        (fun it item ->
           match item.pstr_desc with
           | Pstr_open od -> open_ od.popen_expr; default.structure_item it item
           | Pstr_include { pincl_mod; _ } ->
             Option.iter mark_all (path_of pincl_mod);
             open_ pincl_mod;
             default.structure_item it item
           | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
             scoped (fun () ->
                 sc := { !sc with here = !sc.here @ [ name ] };
                 it.module_expr it pmb_expr);
             bind name pmb_expr
           | _ -> default.structure_item it item);
      expr =
        (fun it e ->
           match e.pexp_desc with
           | Pexp_ident { txt = Longident.Lident name; _ } ->
             List.iter (fun o -> mark o name) !sc.opens
           | Pexp_ident { txt = Longident.Ldot (m, name); _ } ->
             mark (resolve tb !sc (Rules.flatten m)) name
           | Pexp_open (od, body) -> scoped (fun () -> open_ od.popen_expr; it.expr it body)
           | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
             it.module_expr it me;
             scoped (fun () -> bind name me; it.expr it body)
           | _ -> default.expr it e) }
  in
  it.structure it structure

let run ~interfaces ~callers =
  let tb =
    { exports = Hashtbl.create 512; aliases = Hashtbl.create 32; modules = Hashtbl.create 64 }
  in
  List.iter
    (fun (file, items) -> harvest tb ~file [ Callgraph.module_of_path file ] items)
    interfaces;
  List.iter (fun (file, structure) -> scan tb ~file structure) callers;
  Hashtbl.fold
    (fun fq e acc ->
       if e.called then acc
       else
         Findings.make ~rule:rule_name ~file:e.file ~loc:e.loc
           (match e.tests with
            | [] ->
              Printf.sprintf
                "`%s` has no caller outside its own unit; delete it, or drop it from \
                 the interface" fq
            | tests ->
              Printf.sprintf
                "`%s` is called only from %s; delete it with the test, or keep it as a \
                 test oracle with an unused-export allow naming the test that needs it"
                fq (String.concat ", " (List.sort compare tests)))
         :: acc)
    tb.exports []
