(* Compact binary wire format (varints + length-prefixed fields), the
   stand-in for the prototype's Google Protocol Buffers. Writers build
   into a Buffer; readers are cursors with explicit failure via the
   [Malformed] exception, so a Byzantine peer can never crash a node
   with a bad frame — decoding failures are caught at the boundary. *)

exception Malformed of string

type writer = Buffer.t

let writer () = Buffer.create 64

let contents = Buffer.contents

let clear = Buffer.clear

let put_varint buf n =
  if n < 0 then invalid_arg "Wire.put_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_bytes buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = put_varint buf (if b then 1 else 0)

let put_list buf put l =
  put_varint buf (List.length l);
  List.iter (put buf) l

let put_array buf put a =
  put_varint buf (Array.length a);
  Array.iter (put buf) a

let put_option buf put = function
  | None -> put_varint buf 0
  | Some v -> put_varint buf 1; put buf v

type reader = {
  data : string;
  mutable pos : int;
}

let reader data = { data; pos = 0 }

let get_varint r =
  let rec go shift acc =
    if r.pos >= String.length r.data then raise (Malformed "varint: truncated");
    if shift > 56 then raise (Malformed "varint: too long");
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_bytes r =
  let len = get_varint r in
  if len < 0 || len > String.length r.data - r.pos then raise (Malformed "bytes: truncated");
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

(* The varint at [pos] of [s], reading nothing at or past [limit]: the
   rules of [get_varint] without a reader, for parsers that walk a
   buffer in place. *)
let varint_at s ~pos ~limit =
  let rec go pos shift acc =
    if pos >= limit || shift > 56 then None
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let skip_bytes r =
  let len = get_varint r in
  if len < 0 || len > String.length r.data - r.pos then raise (Malformed "bytes: truncated");
  r.pos <- r.pos + len

let get_bool r =
  match get_varint r with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Malformed "bool: bad value")

let get_list r get =
  let len = get_varint r in
  if len < 0 || len > String.length r.data - r.pos then
    raise (Malformed "list: length out of range");
  List.init len (fun _ -> get r)

let get_array r get =
  let len = get_varint r in
  if len < 0 || len > String.length r.data - r.pos then
    raise (Malformed "array: length out of range");
  Array.init len (fun _ -> get r)

let get_option r get =
  match get_varint r with
  | 0 -> None
  | 1 -> Some (get r)
  | _ -> raise (Malformed "option: bad tag")

let expect_end r =
  if r.pos <> String.length r.data then raise (Malformed "trailing bytes")

(* Decode helper: run a parser over a full frame, [None] on any
   malformedness. *)
let decode data parse =
  let r = reader data in
  match parse r with
  | v -> (try expect_end r; Some v with Malformed _ -> None)
  | exception Malformed _ -> None
