let header_len = 4
let max_frame_default = 1 lsl 20

let encode_into buf payload =
  let n = String.length payload in
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_string buf payload

let encode payload =
  let buf = Buffer.create (String.length payload + header_len) in
  encode_into buf payload;
  Buffer.contents buf

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

let buffered d = if d.err = None then Buffer.length d.acc - d.pos else 0
