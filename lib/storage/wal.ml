(* WAL record framing: every record travels as

       crc32 (4 bytes, big-endian) | varint length | payload

   where the checksum covers the length prefix *and* the payload, so a
   flipped length byte is as detectable as a flipped payload byte.
   [scan] is total: it walks the log from the front and stops at the
   first frame that is truncated, oversized, or fails its checksum,
   returning the clean prefix — a torn tail is silently dropped, never
   replayed, and never an exception. *)

module Wire = Dd_codec.Wire
module Crc32 = Dd_codec.Crc32

let put_u32_be buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (n land 0xFF))

let get_u32_be s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame payload =
  let body = Wire.writer () in
  Wire.put_bytes body payload;
  let body = Wire.contents body in
  let buf = Buffer.create (String.length body + 4) in
  put_u32_be buf (Crc32.string body);
  Buffer.add_string buf body;
  Buffer.contents buf

let log ?(sync = true) (d : Device.t) payload =
  d.log_append (frame payload);
  if sync then d.log_sync ()

(* One frame at [off]; [None] on any malformedness (the torn tail). *)
let read_frame s off =
  let len = String.length s in
  if off + 4 > len then None
  else begin
    let crc = get_u32_be s off in
    (* decode the varint length by hand so a truncated varint is a
       clean stop, not an exception *)
    let rec varint pos shift acc =
      if pos >= len || shift > 56 then None
      else
        let b = Char.code s.[pos] in
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then Some (acc, pos + 1)
        else varint (pos + 1) (shift + 7) acc
    in
    match varint (off + 4) 0 0 with
    | None -> None
    | Some (plen, data_off) ->
      if plen < 0 || data_off + plen > len then None
      else if Crc32.update 0 s ~off:(off + 4) ~len:(data_off + plen - (off + 4)) <> crc
      then None
      else Some (String.sub s data_off plen, data_off + plen)
  end

let scan s =
  let rec go off acc =
    match read_frame s off with
    | None -> (List.rev acc, off)
    | Some (payload, off') -> go off' (payload :: acc)
  in
  go 0 []

(* Cut a torn tail before anything new is appended: left in place, it
   would end every later scan and strand the records behind it. *)
let open_log (d : Device.t) =
  let log = d.log_contents () in
  let records, clean = scan log in
  if clean < String.length log then d.log_reset (String.sub log 0 clean);
  records
