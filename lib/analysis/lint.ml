let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let parse_with parser ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match parser lexbuf with
  | ast -> Ok ast
  | exception exn ->
    let loc, msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) ->
        (e.Location.main.Location.loc, Format.asprintf "%t" e.Location.main.Location.txt)
      | _ -> (Location.in_file file, Printexc.to_string exn)
    in
    Error (loc, msg)

let parse = parse_with Parse.implementation

(* Rule names the suppression scanner accepts in allow comments. *)
let known_rules rules =
  List.map (fun (r : Rules.t) -> r.Rules.name) rules
  @ [ Taint.rule_name; Exports.rule_name; "bare-allow"; "parse" ]

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

let sibling_interface path =
  let mli = Filename.remove_extension path ^ ".mli" in
  match read_file mli with Some s -> Some (mli, s) | None -> None

let parsed_or_finding ~file source =
  match parse ~file source with
  | Ok structure -> Ok (file, source, structure)
  | Error (loc, msg) -> Error (Findings.make ~rule:"parse" ~file ~loc ("syntax error: " ^ msg))

(* The one lint pass behind both entry points: per-file rules on each
   parsed file, then the interprocedural taint engine over all of them
   at once (summaries cross file boundaries) and R9, which matches the
   [lib/] interfaces' exports against the references of the files and
   [callers]. Suppressions and bare-allow findings are per-file, the
   interfaces' included; the combined result comes back sorted. *)
let lint_parsed ~rules ~interfaces ~callers parsed broken =
  let parsed_opt parser (path, source) =
    Result.to_option (parse_with parser ~file:path source) |> Option.map (fun s -> (path, s))
  in
  let exported =
    List.filter_map
      (fun (path, source) ->
         if Rules.under [ "lib" ] path then parsed_opt Parse.interface (path, source) else None)
      interfaces
  in
  let files = List.map (fun (p, _, s) -> (p, s)) parsed in
  let caller_only =
    List.filter_map
      (fun path ->
         if List.mem_assoc path files then None
         else Option.bind (read_file path) (fun s -> parsed_opt Parse.implementation (path, s)))
      callers
  in
  let known = known_rules rules in
  let allows_by_file =
    List.map (fun (path, source, _) -> (path, Suppress.scan ~known source)) parsed
    @ List.map (fun (path, source) -> (path, Suppress.scan ~known source)) interfaces
  in
  let checked =
    List.concat_map
      (fun (path, _, structure) -> per_file_findings ~rules ~file:path structure)
      parsed
    @ Taint.run ~files ~interfaces
    @ Exports.run ~interfaces:exported ~callers:(files @ caller_only)
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
  |> Findings.sort

let[@warning "-16"] lint_string ~rules ?(interfaces = []) ~file ~source =
  match parsed_or_finding ~file source with
  | Ok p -> lint_parsed ~rules ~interfaces ~callers:[] [ p ] []
  | Error f -> [ f ]

let lint_program ~rules ?(interfaces = []) ?(callers = []) paths =
  let parsed, broken =
    List.partition_map
      (fun path ->
         match read_file path with
         | None ->
           Right
             (Findings.make ~rule:"parse" ~file:path ~loc:(Location.in_file path)
                "cannot read file")
         | Some source ->
           (match parsed_or_finding ~file:path source with
            | Ok p -> Left p
            | Error f -> Right f))
      paths
  in
  let interfaces =
    interfaces @ List.filter_map (fun (path, _, _) -> sibling_interface path) parsed
  in
  lint_parsed ~rules ~interfaces ~callers parsed broken

let caller_roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

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

(* Constructors of the wire-message types ([Rules.wire_type_names])
   declared in [source]; empty if it declares none or does not parse. *)
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

let messages_fallback = "lib/core/messages.ml"

let wire_constructors files =
  let path =
    match List.find_opt (fun f -> Filename.basename f = "messages.ml") files with
    | Some f -> Some f
    | None -> if Sys.file_exists messages_fallback then Some messages_fallback else None
  in
  match path with
  | None ->
    Error
      (Printf.sprintf "no messages.ml among the linted files and no %s to read R4's \
                       wire constructors from" messages_fallback)
  | Some path ->
    (match Option.map (fun source -> harvest_wire_constructors ~source) (read_file path) with
     | None -> Error (path ^ ": unreadable")
     | Some [] -> Error (path ^ ": declares no vc_msg/bb_msg constructors")
     | Some cs -> Ok cs)
