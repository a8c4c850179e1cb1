type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let make ~rule ~file ~loc message =
  let pos = loc.Location.loc_start in
  { rule; file; line = pos.Lexing.pos_lnum; col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message }

let sort fs =
  List.sort
    (fun a b ->
       match compare a.file b.file with
       | 0 ->
         (match compare (a.line, a.col) (b.line, b.col) with
          | 0 -> compare a.rule b.rule
          | c -> c)
       | c -> c)
    fs

let to_text f = Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message
