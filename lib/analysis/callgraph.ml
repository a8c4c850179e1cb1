(* Module-qualified call graph over a set of parsed files.

   Each compilation unit contributes its top-level functions (and the
   functions of its nested modules) under qualified names:
   [lib/core/ea.ml]'s [let setup_chunks ... = ...] registers as
   "Ea.setup_chunks", [module Inner = struct let f = ... end] as
   "Ea.Inner.f". Call sites are resolved syntactically: an unqualified
   [f] resolves inside the calling unit, [M.f] resolves against the
   last module component, so local aliases ([module Pool =
   Dd_parallel.Pool]) still land on the right summaries as long as
   component names are unambiguous. *)

open Parsetree

type fn = {
  fq : string;                          (* "Ea.setup_chunks", "Ea.Inner.f" *)
  unit_module : string;                 (* "Ea" *)
  params : (Asttypes.arg_label * pattern) list;  (* in declaration order *)
  body : expression;                    (* innermost non-fun expression *)
  loc : Location.t;
}

type t = {
  by_fq : (string, fn) Hashtbl.t;
  (* (last module component, value name) -> fq, for [M.f] call sites *)
  by_tail : (string * string, string) Hashtbl.t;
  order : fn list;                      (* declaration order, all units *)
}

let module_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

(* Peel type annotations and newtypes; collect the [fun] parameter
   chain. A binding whose body is not a function contributes no [fn]
   (top-level values are handled by the taint engine directly). *)
let rec split_params e =
  match e.pexp_desc with
  | Pexp_fun (label, _default, pat, body) ->
    let params, inner = split_params body in
    ((label, pat) :: params, inner)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) ->
    split_params e
  | _ -> ([], e)

let empty () =
  { by_fq = Hashtbl.create 64; by_tail = Hashtbl.create 64; order = [] }

let add t fn =
  if not (Hashtbl.mem t.by_fq fn.fq) then begin
    Hashtbl.replace t.by_fq fn.fq fn;
    (match String.rindex_opt fn.fq '.' with
     | None -> ()
     | Some i ->
       let name = String.sub fn.fq (i + 1) (String.length fn.fq - i - 1) in
       let prefix = String.sub fn.fq 0 i in
       let last_mod =
         match String.rindex_opt prefix '.' with
         | None -> prefix
         | Some j -> String.sub prefix (j + 1) (String.length prefix - j - 1)
       in
       if not (Hashtbl.mem t.by_tail (last_mod, name)) then
         Hashtbl.replace t.by_tail (last_mod, name) fn.fq);
    { t with order = fn :: t.order }
  end
  else t

let rec harvest_structure t ~unit_module ~prefix items =
  List.fold_left
    (fun t item ->
       match item.pstr_desc with
       | Pstr_value (_, bindings) ->
         List.fold_left
           (fun t vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                (match split_params vb.pvb_expr with
                 | [], _ -> t
                 | params, body ->
                   add t
                     { fq = prefix ^ "." ^ txt; unit_module; params; body;
                       loc = vb.pvb_loc })
              | _ -> t)
           t bindings
       | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
         harvest_module_expr t ~unit_module ~prefix:(prefix ^ "." ^ name) pmb_expr
       | Pstr_recmodule mbs ->
         List.fold_left
           (fun t mb ->
              match mb.pmb_name.Asttypes.txt with
              | Some name ->
                harvest_module_expr t ~unit_module ~prefix:(prefix ^ "." ^ name)
                  mb.pmb_expr
              | None -> t)
           t mbs
       | _ -> t)
    t items

and harvest_module_expr t ~unit_module ~prefix me =
  match me.pmod_desc with
  | Pmod_structure items -> harvest_structure t ~unit_module ~prefix items
  | Pmod_functor (_, body) -> harvest_module_expr t ~unit_module ~prefix body
  | Pmod_constraint (me, _) -> harvest_module_expr t ~unit_module ~prefix me
  | _ -> t

let build files =
  let t =
    List.fold_left
      (fun t (path, structure) ->
         let m = module_of_path path in
         harvest_structure t ~unit_module:m ~prefix:m structure)
      (empty ()) files
  in
  { t with order = List.rev t.order }

let functions t = t.order

(* Resolve a call site in [current] (a dotted module prefix, e.g.
   "Ea" or "Ea.Inner"): unqualified names search the enclosing module
   chain outwards; qualified names resolve by their last (module, name)
   pair. *)
let resolve t ~current lid =
  match List.rev (Rules.flatten lid) with
  | [] -> None
  | [ name ] ->
    let rec search prefix =
      match Hashtbl.find_opt t.by_fq (prefix ^ "." ^ name) with
      | Some fn -> Some fn
      | None ->
        (match String.rindex_opt prefix '.' with
         | None -> None
         | Some i -> search (String.sub prefix 0 i))
    in
    search current
  | name :: last_mod :: _ ->
    (match Hashtbl.find_opt t.by_tail (last_mod, name) with
     | Some fq -> Hashtbl.find_opt t.by_fq fq
     | None -> None)
