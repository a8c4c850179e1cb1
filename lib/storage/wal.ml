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

let get_u32_be s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* The frame of [head ^ payload], built in one allocation of exactly its
   size: the checksum runs over the pieces in turn, so the concatenation
   is never formed. *)
let frame ?(head = "") payload =
  let hl = String.length head and pl = String.length payload in
  let len =
    let w = Wire.writer () in
    Wire.put_varint w (hl + pl);
    Wire.contents w
  in
  let ll = String.length len in
  let crc =
    Crc32.update (Crc32.update (Crc32.string len) head ~off:0 ~len:hl) payload ~off:0 ~len:pl
  in
  let b = Bytes.create (4 + ll + hl + pl) in
  Bytes.set_int32_be b 0 (Int32.of_int crc);
  Bytes.blit_string len 0 b 4 ll;
  Bytes.blit_string head 0 b (4 + ll) hl;
  Bytes.blit_string payload 0 b (4 + ll + hl) pl;
  Bytes.unsafe_to_string b

let log ?(sync = true) (d : Device.t) payload =
  d.log_append (frame payload);
  if sync then d.log_sync ()

(* The frame at [off], in place; [None] on any malformedness (the torn
   tail). A truncated varint length is a clean stop, not an exception,
   and so is one near [max_int]: the bound is tested as [plen > len -
   data_off], which cannot overflow. *)
let payload_at s off =
  let len = String.length s in
  if off + 4 > len then None
  else
    match Wire.varint_at s ~pos:(off + 4) ~limit:len with
    | None -> None
    | Some (plen, data_off) ->
      if plen < 0 || plen > len - data_off then None
      else if Crc32.update 0 s ~off:(off + 4) ~len:(data_off + plen - (off + 4)) <> get_u32_be s off
      then None
      else Some (data_off, data_off + plen)

let read_frame s off =
  Option.map (fun (p, next) -> (String.sub s p (next - p), next)) (payload_at s off)

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
