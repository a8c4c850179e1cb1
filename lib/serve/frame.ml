let header_len = 4
let max_frame_default = 1 lsl 20

let encode_into buf payload =
  let n = String.length payload in
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_string buf payload

type decoder = {
  mutable acc : Buffer.t;
  mutable pos : int;                 (* consumed prefix of [acc] *)
  mutable err : string option;
}

let create () = { acc = Buffer.create 256; pos = 0; err = None }

let feed d bytes =
  if d.err = None && String.length bytes > 0 then Buffer.add_string d.acc bytes

(* Reclaim the consumed prefix once it dominates the buffer; amortized
   O(1) per byte, so a long-lived connection never accretes. *)
let compact d =
  if d.pos > 4096 && d.pos * 2 > Buffer.length d.acc then begin
    let rest = Buffer.sub d.acc d.pos (Buffer.length d.acc - d.pos) in
    let fresh = Buffer.create (String.length rest + 256) in
    Buffer.add_string fresh rest;
    d.acc <- fresh;
    d.pos <- 0
  end

let pop d =
  match d.err with
  | Some _ -> None
  | None ->
    let avail = Buffer.length d.acc - d.pos in
    if avail < header_len then None
    else begin
      let b i = Char.code (Buffer.nth d.acc (d.pos + i)) in
      let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if n > max_frame_default then begin
        d.err <- Some (Printf.sprintf "frame length %d exceeds max %d" n max_frame_default);
        None
      end
      else if avail < header_len + n then None
      else begin
        let payload = Buffer.sub d.acc (d.pos + header_len) n in
        d.pos <- d.pos + header_len + n;
        compact d;
        Some payload
      end
    end

let error d = d.err


type link = { conn : Transport.conn; dec : decoder; out : Buffer.t; mutable live : bool }

let link conn = { conn; dec = create (); out = Buffer.create 256; live = true }
let is_open l = l.live
let backlog l = Buffer.length l.out
let poisoned l = l.dec.err <> None

let queue l payload =
  if l.live then encode_into l.out payload;
  Bool.to_int l.live

(* A partial write keeps only the unsent tail, so [out] holds exactly
   the link's backlog. *)
let flush l =
  let len = Buffer.length l.out in
  if len = 0 then 0
  else begin
    let data = Buffer.contents l.out in
    let k = l.conn.Transport.send data ~pos:0 ~len in
    Buffer.clear l.out;
    Buffer.add_substring l.out data k (len - k);
    k
  end

let close l =
  if l.live then begin
    l.live <- false;
    Buffer.reset l.out;
    l.conn.Transport.close ()
  end

let pump l on_frame =
  if not l.live then (0, 0)
  else begin
    (* feed chunk by chunk so torn deliveries reach the decoder as-is *)
    let rec feed_all bytes =
      match l.conn.Transport.recv () with
      | "" -> bytes
      | s -> feed l.dec s; feed_all (bytes + String.length s)
    in
    let bytes = feed_all 0 in
    (* [on_frame] may close the link; a closed link delivers no more *)
    let rec pop_all frames =
      match if l.live then pop l.dec else None with
      | None -> frames
      | Some p -> on_frame p; pop_all (frames + 1)
    in
    let frames = pop_all 0 in
    if poisoned l || not (l.conn.Transport.alive ()) then close l;
    (bytes, frames)
  end
