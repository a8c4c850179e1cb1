let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
    let loc, msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) ->
        (e.Location.main.Location.loc, Format.asprintf "%t" e.Location.main.Location.txt)
      | _ -> (Location.in_file file, Printexc.to_string exn)
    in
    Error (loc, msg)

(* Rule names the suppression scanner accepts in allow comments. *)
let known_rules rules =
  List.map (fun (r : Rules.t) -> r.Rules.name) rules
  @ [ Taint.rule_name; "bare-allow"; "parse" ]

let loc_at ~file ~line =
  let pos = { Lexing.pos_fname = file; pos_lnum = line; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = true }

let bare_allow_findings ~file allows =
  Suppress.unjustified allows
  |> List.map (fun (line, rules) ->
      let what =
        match rules with
        | [] -> "it names no known rule"
        | rs -> "no justification after " ^ String.concat ", " rs
      in
      Findings.make ~rule:"bare-allow" ~file ~loc:(loc_at ~file ~line)
        (Printf.sprintf
           "unauditable suppression (%s); write (* lint: allow <rule> <why> *)"
           what))

let per_file_findings ~rules ~file structure =
  List.concat_map
    (fun (r : Rules.t) ->
       if r.Rules.applies file then r.Rules.check ~file structure else [])
    rules

let[@warning "-16"] lint_string ~rules ?(interfaces = []) ~file ~source =
  match parse ~file source with
  | Error (loc, msg) ->
    [ Findings.make ~rule:"parse" ~file ~loc ("syntax error: " ^ msg) ]
  | Ok structure ->
    let allows = Suppress.scan ~known:(known_rules rules) source in
    let checked =
      per_file_findings ~rules ~file structure
      @ Taint.run ~files:[ (file, structure) ] ~interfaces
    in
    (checked
     |> List.filter (fun (f : Findings.t) ->
         not (Suppress.allowed allows ~rule:f.Findings.rule ~line:f.Findings.line)))
    @ bare_allow_findings ~file allows
    |> Findings.fingerprint_all

let sibling_interface path =
  let mli = Filename.remove_extension path ^ ".mli" in
  match read_file mli with Some s -> Some (mli, s) | None -> None

(* Whole-program lint: every file is parsed once, per-file rules run on
   each, then the interprocedural taint engine sees all of them at once
   (summaries cross file boundaries). Suppressions and bare-allow
   findings are per-file; fingerprints are assigned over the combined,
   sorted result. [interfaces] augments the automatically discovered
   sibling [.mli] sources (used by tests to inject annotations). *)
let lint_program ~rules ?(interfaces = []) paths =
  let parsed, broken =
    List.fold_left
      (fun (ok, bad) path ->
         match read_file path with
         | None ->
           ( ok,
             Findings.make ~rule:"parse" ~file:path ~loc:(Location.in_file path)
               "cannot read file"
             :: bad )
         | Some source ->
           (match parse ~file:path source with
            | Error (loc, msg) ->
              ( ok,
                Findings.make ~rule:"parse" ~file:path ~loc ("syntax error: " ^ msg)
                :: bad )
            | Ok structure -> ((path, source, structure) :: ok, bad)))
      ([], []) paths
  in
  let parsed = List.rev parsed in
  let interfaces =
    interfaces
    @ List.filter_map (fun (path, _, _) -> sibling_interface path) parsed
  in
  let known = known_rules rules in
  let allows_by_file =
    List.map (fun (path, source, _) -> (path, Suppress.scan ~known source)) parsed
  in
  let checked =
    List.concat_map
      (fun (path, _, structure) -> per_file_findings ~rules ~file:path structure)
      parsed
    @ Taint.run
        ~files:(List.map (fun (p, _, s) -> (p, s)) parsed)
        ~interfaces
  in
  let suppressed (f : Findings.t) =
    match List.assoc_opt f.Findings.file allows_by_file with
    | Some allows ->
      Suppress.allowed allows ~rule:f.Findings.rule ~line:f.Findings.line
    | None -> false
  in
  broken
  @ List.filter (fun f -> not (suppressed f)) checked
  @ List.concat_map
      (fun (path, allows) -> bare_allow_findings ~file:path allows)
      allows_by_file
  |> Findings.fingerprint_all

let skip_dir name = name = "_build" || (String.length name > 0 && name.[0] = '.')

let ml_files roots =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      if not (skip_dir (Filename.basename path)) || List.mem path roots then
        Sys.readdir path |> Array.to_list |> List.sort compare
        |> List.iter (fun entry -> walk (Filename.concat path entry))
    end
    else if Filename.check_suffix path ".ml" then acc := path :: !acc
  in
  List.iter (fun root -> if Sys.file_exists root then walk root) roots;
  List.sort compare !acc

let harvest_wire_constructors ~source =
  match parse ~file:"<harvest>" source with
  | Error _ -> []
  | Ok structure ->
    let acc = ref [] in
    let type_decl (td : Parsetree.type_declaration) =
      if List.mem td.Parsetree.ptype_name.Asttypes.txt Rules.wire_type_names then
        match td.Parsetree.ptype_kind with
        | Parsetree.Ptype_variant constructors ->
          List.iter
            (fun (c : Parsetree.constructor_declaration) ->
               acc := c.Parsetree.pcd_name.Asttypes.txt :: !acc)
            constructors
        | _ -> ()
    in
    let it =
      { Ast_iterator.default_iterator with
        type_declaration = (fun it td -> type_decl td;
                             Ast_iterator.default_iterator.type_declaration it td) }
    in
    it.structure it structure;
    List.rev !acc
