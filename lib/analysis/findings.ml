type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  fingerprint : string;
}

let make ~rule ~file ~loc message =
  let pos = loc.Location.loc_start in
  { rule; file; line = pos.Lexing.pos_lnum; col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message; fingerprint = "" }

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

(* Stable fingerprints: hash of (rule, file, message, k) where k is
   the occurrence index of that exact triple within the file, counted
   in source order. Line/column numbers deliberately do not
   participate, so inserting or deleting unrelated lines does not
   break a SARIF consumer's match; the occurrence index keeps two
   identical violations in one file distinct. *)
let fingerprint_all fs =
  let fs = sort fs in
  let seen = Hashtbl.create 16 in
  List.map
    (fun f ->
       let key = (f.rule, f.file, f.message) in
       let k = match Hashtbl.find_opt seen key with Some k -> k | None -> 0 in
       Hashtbl.replace seen key (k + 1);
       let digest =
         Digest.to_hex
           (Digest.string
              (Printf.sprintf "%s\x00%s\x00%s\x00%d" f.rule f.file f.message k))
       in
       { f with fingerprint = String.sub digest 0 16 })
    fs

let to_text f = Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

(* Minimal JSON escaping: the fields we emit only ever contain paths,
   rule names and fixed message text, but stay correct on any input. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* --- SARIF 2.1.0 -------------------------------------------------------- *)

(* One run, one artifact per distinct file, one result per finding.
   Columns are 1-based in SARIF; our [col] is 0-based. The fingerprint
   goes into [partialFingerprints] under a versioned key, which is
   what SARIF consumers use for matching
   across revisions. *)
let to_sarif ~rules fs =
  let b = Buffer.create 4096 in
  let str s = "\"" ^ escape s ^ "\"" in
  Buffer.add_string b
    "{\"$schema\":\"https://docs.oasis-open.org/sarif/sarif/v2.1.0/os/schemas/sarif-schema-2.1.0.json\",";
  Buffer.add_string b "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{";
  Buffer.add_string b
    "\"name\":\"ddemos-lint\",\"informationUri\":\"docs/INVARIANTS.md\",\"rules\":[";
  List.iteri
    (fun i (name, short) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf
            "{\"id\":%s,\"shortDescription\":{\"text\":%s},\"defaultConfiguration\":{\"level\":\"error\"}}"
            (str name) (str short)))
    rules;
  Buffer.add_string b "]}},\"results\":[";
  List.iteri
    (fun i f ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf
            "{\"ruleId\":%s,\"level\":\"error\",\"message\":{\"text\":%s},\
             \"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s},\
             \"region\":{\"startLine\":%d,\"startColumn\":%d}}}],\
             \"partialFingerprints\":{\"ddemosLint/v1\":%s}}"
            (str f.rule) (str f.message) (str f.file) f.line (f.col + 1)
            (str f.fingerprint)))
    fs;
  Buffer.add_string b "]}]}";
  Buffer.contents b
