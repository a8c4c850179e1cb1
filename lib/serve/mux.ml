module Wire = Dd_codec.Wire
module Types = Ddemos.Types
module Messages = Ddemos.Messages

type t =
  | Client_vote of { channel : int; req : int; serial : int; vote_code : string }
  | Client_reply of { channel : int; req : int; outcome : Types.vote_outcome }
  | Vc of Messages.vc_msg list
  | Bb of Messages.bb_msg list

(* Link frame kinds: one message, or a batch of two or more. Client
   frames are kinds 0 (vote) and 1 (reply). A payload past the frame
   cap travels cut into pieces: kind 6 while more follow, 7 the last. *)
type link_kind = { one : int; many : int }

let vc_kind = { one = 2; many = 4 }
let bb_kind = { one = 3; many = 5 }

let put_outcome w = function
  | Types.Receipt receipt ->
    Wire.put_varint w 0;
    Wire.put_bytes w receipt
  | Types.Rejected why ->
    Wire.put_varint w 1;
    Wire.put_bytes w why

let get_outcome r =
  match Wire.get_varint r with
  | 0 -> Types.Receipt (Wire.get_bytes r)
  | 1 -> Types.Rejected (Wire.get_bytes r)
  | _ -> raise (Wire.Malformed "outcome: bad kind")

(* One link payload from already-encoded messages. *)
let encode_items kind items =
  let w = Wire.writer () in
  (match items with
   | [] -> invalid_arg "Mux.encode: empty message list"
   | [ item ] ->
     Wire.put_varint w kind.one;
     Wire.put_bytes w item
   | items ->
     Wire.put_varint w kind.many;
     Wire.put_varint w (List.length items);
     List.iter (Wire.put_bytes w) items);
  Wire.contents w

let frame_of msg =
  match msg with
  | Client_vote { channel; req; serial; vote_code } ->
    let w = Wire.writer () in
    Wire.put_varint w 0;
    Wire.put_varint w channel; Wire.put_varint w req;
    Wire.put_varint w serial; Wire.put_bytes w vote_code;
    Wire.contents w
  | Client_reply { channel; req; outcome } ->
    let w = Wire.writer () in
    Wire.put_varint w 1;
    Wire.put_varint w channel; Wire.put_varint w req;
    put_outcome w outcome;
    Wire.contents w
  | Vc ms -> encode_items vc_kind (List.map Messages.encode_vc_msg ms)
  | Bb ms -> encode_items bb_kind (List.map Messages.encode_bb_msg ms)

let encode (_ : Dd_group.Group_ctx.t) msg = frame_of msg

let varint_len n =
  let rec go n k = if n < 0x80 then k else go (n lsr 7) (k + 1) in
  go n 1

(* Greedy in-order cut: [size] tracks the payload [encode_items] would
   build from the current group (kind byte, count when two or more,
   each item length-prefixed). *)
let split ~max_frame items =
  let cost item = varint_len (String.length item) + String.length item in
  let size n body = 1 + (if n >= 2 then varint_len n else 0) + body in
  let rec go groups group n body = function
    | [] -> List.rev (if group = [] then groups else List.rev group :: groups)
    | item :: rest ->
      let c = cost item in
      if n > 0 && size (n + 1) (body + c) > max_frame then
        go (List.rev group :: groups) [ item ] 1 c rest
      else go groups (item :: group) (n + 1) (body + c) rest
  in
  go [] [] 0 0 items

let piece_more = '\006' and piece_last = '\007'

(* Only a lone message can outgrow [max_frame] after [split]. *)
let pieces ~max_frame payload =
  let n = String.length payload and chunk = max_frame - 1 in
  if n <= max_frame then [ payload ]
  else
    List.init ((n + chunk - 1) / chunk) (fun k ->
        let pos = k * chunk in
        let len = min chunk (n - pos) in
        String.make 1 (if pos + len = n then piece_last else piece_more)
        ^ String.sub payload pos len)

let encode_split ~max_frame msg =
  let link kind encode ms =
    List.concat_map
      (fun group -> pieces ~max_frame (encode_items kind group))
      (split ~max_frame (List.map encode ms))
  in
  match msg with
  | Vc ms -> link vc_kind Messages.encode_vc_msg ms
  | Bb ms -> link bb_kind Messages.encode_bb_msg ms
  | Client_vote _ | Client_reply _ -> [ frame_of msg ]

let get_batch r decode_item =
  let n = Wire.get_varint r in
  if n < 2 then raise (Wire.Malformed "mux: batch of fewer than two");
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (decode_item r :: acc) in
  go n []

let decode_payload frame =
  let vc r =
    match Messages.decode_vc_msg (Wire.get_bytes r) with
    | Some m -> m
    | None -> raise (Wire.Malformed "nested vc_msg")
  in
  let bb r =
    match Messages.decode_bb_msg (Wire.get_bytes r) with
    | Some m -> m
    | None -> raise (Wire.Malformed "nested bb_msg")
  in
  Wire.decode frame (fun r ->
      match Wire.get_varint r with
      | 0 ->
        let channel = Wire.get_varint r in
        let req = Wire.get_varint r in
        let serial = Wire.get_varint r in
        let vote_code = Wire.get_bytes r in
        Client_vote { channel; req; serial; vote_code }
      | 1 ->
        let channel = Wire.get_varint r in
        let req = Wire.get_varint r in
        let outcome = get_outcome r in
        Client_reply { channel; req; outcome }
      | 2 -> Vc [ vc r ]
      | 3 -> Bb [ bb r ]
      | 4 -> Vc (get_batch r vc)
      | 5 -> Bb (get_batch r bb)
      | _ -> raise (Wire.Malformed "mux: bad kind"))

let decode (_ : Dd_group.Group_ctx.t) frame = decode_payload frame

type assembler = { max_message : unit -> int; part : Buffer.t }

let assembler ~max_message = { max_message; part = Buffer.create 0 }

type received = Message of t | Piece | Malformed

(* A payload that is not a piece drops a partial message, which only a
   sender that breaks the piece order leaves behind. *)
let receive a payload =
  let piece = payload <> "" && (payload.[0] = piece_more || payload.[0] = piece_last) in
  if piece then Buffer.add_substring a.part payload 1 (String.length payload - 1);
  if piece && Buffer.length a.part > a.max_message () then (Buffer.reset a.part; Malformed)
  else if piece && payload.[0] = piece_more then Piece
  else begin
    let whole = if piece then Buffer.contents a.part else payload in
    Buffer.reset a.part;
    match decode_payload whole with Some m -> Message m | None -> Malformed
  end
