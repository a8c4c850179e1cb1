(* Append-only Merkle-committed segments over the sans-IO device.

   Frame discipline is inherited from the WAL (crc32 | varint len |
   payload); this module adds a tag byte inside each payload and the
   chunk/checkpoint structure on top. Nothing here touches the
   filesystem: all IO goes through the Device record, so the simulator
   can crash a writer at any byte and a real deployment gets the same
   code over File_device. *)

module Wire = Dd_codec.Wire
module Device = Dd_store.Device
module Wal = Dd_store.Wal
module Merkle = Dd_crypto.Merkle

let magic = "DSEG1"

(* payload tags *)
let tag_header = 0
let tag_data = 1
let tag_trailer = 2
let tag_footer = 3

type manifest = {
  kind : string;
  chunk_size : int;
  total : int;
  chunk_first : int array;
  chunk_count : int array;
  chunk_root : string array;
  chunk_pos : int array;
  chunk_len : int array;
  root : string;
}

let n_chunks m = Array.length m.chunk_root

let chunk_of_index m i =
  if i < 0 || i >= m.total then invalid_arg "Segment.chunk_of_index";
  let lo = ref 0 and hi = ref (n_chunks m - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if m.chunk_first.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

(* Chunk roots enter the top tree as *leaves* (leaf-hashed), so a
   chunk root can never be confused with a top-tree interior node. *)
let root_of_chunk_roots roots =
  let b = Merkle.create () in
  Array.iter (Merkle.add b) roots;
  Merkle.root b

(* --- payload encoders ------------------------------------------------ *)

let enc_header ~kind ~chunk_size =
  let w = Wire.writer () in
  Wire.put_varint w tag_header;
  Wire.put_bytes w magic;
  Wire.put_bytes w kind;
  Wire.put_varint w chunk_size;
  Wire.contents w

(* A data payload is [tag_data | varint len | record]; [data_head] is
   its first two fields, which [Wal.frame] puts before the record
   without copying the record into a payload first. *)
let data_head record =
  let w = Wire.writer () in
  Wire.put_varint w tag_data;
  Wire.put_varint w (String.length record);
  Wire.contents w

let enc_trailer ~index ~first ~count ~root ~pos ~len =
  let w = Wire.writer () in
  Wire.put_varint w tag_trailer;
  Wire.put_varint w index;
  Wire.put_varint w first;
  Wire.put_varint w count;
  Wire.put_bytes w root;
  Wire.put_varint w pos;
  Wire.put_varint w len;
  Wire.contents w

let enc_footer ~total ~chunks ~root =
  let w = Wire.writer () in
  Wire.put_varint w tag_footer;
  Wire.put_varint w total;
  Wire.put_varint w chunks;
  Wire.put_bytes w root;
  Wire.contents w

(* --- writer ----------------------------------------------------------- *)

type chunk_meta = {
  cm_first : int;
  cm_count : int;
  cm_root : string;
  cm_pos : int;
  cm_len : int;
}

type writer = {
  dev : Device.t;
  w_kind : string;
  w_chunk_size : int;
  mutable w_total : int;
  mutable cur_count : int;
  mutable cur_builder : Merkle.builder;
  mutable cur_pos : int;  (* byte offset of the current chunk's first frame *)
  mutable off : int;  (* durable + buffered byte offset *)
  mutable chunks_rev : chunk_meta list;
  mutable sealed : bool;
}

let written w = w.w_total

let push_frame ?head w payload =
  let fr = Wal.frame ?head payload in
  w.dev.Device.log_append fr;
  w.off <- w.off + String.length fr

let create_writer ~chunk_size dev ~kind =
  if chunk_size <= 0 then invalid_arg "Segment.create_writer: chunk_size";
  dev.Device.log_sync ();
  if dev.Device.log_size () > 0 then
    invalid_arg "Segment.create_writer: device not empty (use resume)";
  let w =
    { dev; w_kind = kind; w_chunk_size = chunk_size; w_total = 0;
      cur_count = 0; cur_builder = Merkle.create (); cur_pos = 0; off = 0;
      chunks_rev = []; sealed = false }
  in
  push_frame w (enc_header ~kind ~chunk_size);
  dev.Device.log_sync ();
  w.cur_pos <- w.off;
  w

(* Checkpoint: trailer + sync. Everything in the chunk is durable after
   this returns. *)
let flush_chunk w =
  if w.cur_count > 0 then begin
    let first = w.w_total - w.cur_count in
    let root = Merkle.root w.cur_builder in
    let pos = w.cur_pos and len = w.off - w.cur_pos in
    push_frame w
      (enc_trailer ~index:(List.length w.chunks_rev) ~first ~count:w.cur_count
         ~root ~pos ~len);
    w.dev.Device.log_sync ();
    w.chunks_rev <-
      { cm_first = first; cm_count = w.cur_count; cm_root = root;
        cm_pos = pos; cm_len = len }
      :: w.chunks_rev;
    w.cur_count <- 0;
    w.cur_builder <- Merkle.create ();
    w.cur_pos <- w.off
  end

let append w payload =
  if w.sealed then invalid_arg "Segment.append: sealed";
  push_frame ~head:(data_head payload) w payload;
  Merkle.add w.cur_builder payload;
  w.cur_count <- w.cur_count + 1;
  w.w_total <- w.w_total + 1;
  if w.cur_count = w.w_chunk_size then flush_chunk w

let manifest_of_chunks ~kind ~chunk_size ~total chunks =
  let n = List.length chunks in
  let chunk_first = Array.make n 0 and chunk_count = Array.make n 0 in
  let chunk_root = Array.make n "" in
  let chunk_pos = Array.make n 0 and chunk_len = Array.make n 0 in
  List.iteri
    (fun i cm ->
      chunk_first.(i) <- cm.cm_first;
      chunk_count.(i) <- cm.cm_count;
      chunk_root.(i) <- cm.cm_root;
      chunk_pos.(i) <- cm.cm_pos;
      chunk_len.(i) <- cm.cm_len)
    chunks;
  { kind; chunk_size; total; chunk_first; chunk_count; chunk_root;
    chunk_pos; chunk_len; root = root_of_chunk_roots chunk_root }

let seal w =
  if w.sealed then invalid_arg "Segment.seal: already sealed";
  flush_chunk w;
  let chunks = List.rev w.chunks_rev in
  let m =
    manifest_of_chunks ~kind:w.w_kind ~chunk_size:w.w_chunk_size
      ~total:w.w_total chunks
  in
  push_frame w (enc_footer ~total:m.total ~chunks:(n_chunks m) ~root:m.root);
  w.dev.Device.log_sync ();
  w.sealed <- true;
  m

(* --- sliding-window frame scan ---------------------------------------- *)

let window = 65536

(* Walk every clean frame without ever holding more than the window
   (or one oversized frame) in memory. [f acc payload frame_off next_off].
   Returns the accumulator and the clean-end offset. *)
let fold_frames (dev : Device.t) f acc =
  let size = dev.Device.log_size () in
  let buf = ref "" and base = ref 0 in
  let rec at off acc =
    if off >= size then (acc, off)
    else begin
      if off < !base || off - !base >= String.length !buf then begin
        base := off;
        buf := dev.Device.log_read ~pos:off ~len:window
      end;
      match Wal.read_frame !buf (off - !base) with
      | Some (payload, rel_next) ->
          let next = !base + rel_next in
          at next (f acc payload off next)
      | None ->
          let have = !base + String.length !buf in
          if !base < off then begin
            (* the frame straddles the window's tail: re-anchor a fresh
               window at the frame rather than growing this one, so the
               resident buffer stays O(window + one frame), never
               O(log) *)
            base := off;
            buf := dev.Device.log_read ~pos:off ~len:window;
            at off acc
          end
          else if have < size then begin
            (* a single frame longer than the window: grow it in place *)
            let grow = max window (have - !base) in
            let more = dev.Device.log_read ~pos:have ~len:grow in
            if String.length more = 0 then (acc, off)
            else begin
              buf := !buf ^ more;
              at off acc
            end
          end
          else (acc, off)
    end
  in
  at 0 acc

(* --- load / classification -------------------------------------------- *)

type load_result =
  | Empty
  | Sealed of manifest
  | Partial of manifest
  | Corrupt of string

(* Decoded view of one payload. *)
type frame_kind =
  | F_header of string * int
  | F_data  (* the record is checked, not copied: a scan only counts it *)
  | F_trailer of chunk_meta * int  (* meta, declared chunk index *)
  | F_footer of int * int * string
  | F_bad of string

let parse_payload p =
  match
    Wire.decode p (fun r ->
        let tag = Wire.get_varint r in
        if tag = tag_header then begin
          let mg = Wire.get_bytes r in
          let kind = Wire.get_bytes r in
          let cs = Wire.get_varint r in
          if String.equal mg magic then F_header (kind, cs)
          else F_bad "bad magic"
        end
        else if tag = tag_data then (Wire.skip_bytes r; F_data)
        else if tag = tag_trailer then begin
          let index = Wire.get_varint r in
          let first = Wire.get_varint r in
          let count = Wire.get_varint r in
          let root = Wire.get_bytes r in
          let pos = Wire.get_varint r in
          let len = Wire.get_varint r in
          F_trailer
            ( { cm_first = first; cm_count = count; cm_root = root;
                cm_pos = pos; cm_len = len },
              index )
        end
        else if tag = tag_footer then begin
          let total = Wire.get_varint r in
          let chunks = Wire.get_varint r in
          let root = Wire.get_bytes r in
          F_footer (total, chunks, root)
        end
        else F_bad "unknown tag")
  with
  | Some k -> k
  | None -> F_bad "undecodable payload"

(* Full structural scan; shared by load and resume. *)
type scan_state = {
  mutable s_kind : (string * int) option;
  mutable s_chunks_rev : chunk_meta list;
  mutable s_covered : int;  (* records covered by trailers *)
  mutable s_pending : int;  (* data frames since the last trailer *)
  mutable s_checkpoint_end : int;  (* byte end of header/last trailer *)
  mutable s_footer : (int * int * string) option;
  mutable s_error : string option;
}

let scan_segment dev =
  let st =
    { s_kind = None; s_chunks_rev = []; s_covered = 0; s_pending = 0;
      s_checkpoint_end = 0; s_footer = None; s_error = None }
  in
  let step () payload _off next =
    if st.s_error <> None then ()
    else
      match parse_payload payload with
      | F_bad msg -> st.s_error <- Some msg
      | F_header (kind, cs) ->
          if st.s_kind <> None then st.s_error <- Some "duplicate header"
          else if cs <= 0 then st.s_error <- Some "bad chunk size"
          else begin
            st.s_kind <- Some (kind, cs);
            st.s_checkpoint_end <- next
          end
      | F_data ->
          if st.s_kind = None then st.s_error <- Some "data before header"
          else if st.s_footer <> None then st.s_error <- Some "data after footer"
          else st.s_pending <- st.s_pending + 1
      | F_trailer (cm, index) ->
          if st.s_kind = None then st.s_error <- Some "trailer before header"
          else if st.s_footer <> None then
            st.s_error <- Some "trailer after footer"
          else if index <> List.length st.s_chunks_rev then
            st.s_error <- Some "trailer index out of order"
          else if cm.cm_first <> st.s_covered || cm.cm_count <> st.s_pending
          then st.s_error <- Some "trailer range mismatch"
          else begin
            st.s_chunks_rev <- cm :: st.s_chunks_rev;
            st.s_covered <- st.s_covered + cm.cm_count;
            st.s_pending <- 0;
            st.s_checkpoint_end <- next
          end
      | F_footer (total, chunks, root) ->
          if st.s_kind = None then st.s_error <- Some "footer before header"
          else if st.s_footer <> None then st.s_error <- Some "duplicate footer"
          else if st.s_pending > 0 then
            st.s_error <- Some "footer with unflushed data"
          else st.s_footer <- Some (total, chunks, root)
  in
  let (), clean_end = fold_frames dev step () in
  (st, clean_end)

let load dev =
  dev.Device.log_sync ();
  let size = dev.Device.log_size () in
  if size = 0 then Empty
  else begin
    let st, clean_end = scan_segment dev in
    match (st.s_error, st.s_kind) with
    | Some msg, _ -> Corrupt msg
    | None, None -> Corrupt "missing header"
    | None, Some (kind, chunk_size) -> (
        let m =
          manifest_of_chunks ~kind ~chunk_size ~total:st.s_covered
            (List.rev st.s_chunks_rev)
        in
        match st.s_footer with
        | None ->
            (* a torn tail past the last checkpoint is the expected
               crash shape: everything after it is garbage-by-design *)
            Partial m
        | Some (total, chunks, root) ->
            if clean_end < size then Corrupt "trailing bytes after footer"
            else if total <> st.s_covered then Corrupt "footer total mismatch"
            else if chunks <> n_chunks m then Corrupt "footer chunk count mismatch"
            else if not (String.equal root m.root) then Corrupt "footer root mismatch"
            else Sealed m)
  end

let resume dev ~kind =
  dev.Device.log_sync ();
  let st, _ = scan_segment dev in
  (match st.s_error with
  | Some msg -> invalid_arg ("Segment.resume: corrupt segment: " ^ msg)
  | None -> ());
  if st.s_footer <> None then invalid_arg "Segment.resume: segment is sealed";
  match st.s_kind with
  | None -> invalid_arg "Segment.resume: no segment header"
  | Some (k, chunk_size) ->
      if not (String.equal k kind) then
        invalid_arg "Segment.resume: kind mismatch";
      (* Truncate back to the last durable checkpoint: uncheckpointed
         data frames and the torn tail both go. One materialized pass
         over the clean prefix — the only place the format pays a
         whole-prefix cost, and only on crash recovery. *)
      let prefix =
        dev.Device.log_read ~pos:0 ~len:st.s_checkpoint_end
      in
      dev.Device.log_reset prefix;
      dev.Device.log_sync ();
      let w =
        { dev; w_kind = kind; w_chunk_size = chunk_size;
          w_total = st.s_covered; cur_count = 0;
          cur_builder = Merkle.create ();
          cur_pos = st.s_checkpoint_end; off = st.s_checkpoint_end;
          chunks_rev = st.s_chunks_rev; sealed = false }
      in
      (w, st.s_covered)

(* --- chunk reads ------------------------------------------------------- *)

(* The record in the data payload at [s.[off .. limit)], copied once:
   [None] unless the tag is [tag_data] and the length field spans
   exactly the rest of the payload, the checks [parse_payload] makes. *)
let data_record s ~off ~limit =
  match Wire.varint_at s ~pos:off ~limit with
  | Some (tag, pos) when tag = tag_data -> (
      match Wire.varint_at s ~pos ~limit with
      | Some (len, pos) when len = limit - pos -> Some (String.sub s pos len)
      | _ -> None)
  | _ -> None

(* Frames are parsed in place in the chunk's bytes: each record is
   copied out once, and nothing else is. *)
let read_chunk (dev : Device.t) m c =
  if c < 0 || c >= n_chunks m then None
  else begin
    let len = m.chunk_len.(c) and count = m.chunk_count.(c) in
    let bytes = dev.Device.log_read ~pos:m.chunk_pos.(c) ~len in
    (* a frame takes at least five bytes, so [count <= len] bounds the
       array by bytes actually read *)
    if String.length bytes <> len || count < 0 || count > len then None
    else begin
      let out = Array.make count "" in
      let b = Merkle.create () in
      (* every frame clean, all of them data, exactly [count] of them,
         the last ending at the chunk's end *)
      let rec walk off i =
        if off = len then i = count
        else if i = count then false
        else
          match Wal.payload_at bytes off with
          | None -> false
          | Some (p, next) -> (
              match data_record bytes ~off:p ~limit:next with
              | None -> false
              | Some d ->
                  out.(i) <- d;
                  Merkle.add b d;
                  walk next (i + 1))
      in
      if walk 0 0 && String.equal (Merkle.root b) m.chunk_root.(c) then Some out
      else None
    end
  end

let iter_records dev m f =
  let ok = ref true in
  let c = ref 0 in
  while !ok && !c < n_chunks m do
    (match read_chunk dev m !c with
    | None -> ok := false
    | Some payloads ->
        Array.iteri (fun i p -> f (m.chunk_first.(!c) + i) p) payloads);
    incr c
  done;
  !ok

let read_all dev m =
  let out = Array.make m.total "" in
  if iter_records dev m (fun i p -> out.(i) <- p) then Some out else None

(* --- slice proofs ------------------------------------------------------ *)

let slice_proof m c =
  Merkle.proof_of_hashes
    (Array.to_list (Array.map Merkle.leaf_hash m.chunk_root))
    c

let verify_slice ~root ~chunk_root proof =
  Merkle.verify ~root ~leaf_digest:(Merkle.leaf_hash chunk_root) proof

(* --- bounded LRU of decoded chunks ------------------------------------- *)

module Cache = struct
  type slot = { sl_chunk : int; sl_data : string array; mutable sl_stamp : int }

  type t = {
    c_dev : Device.t;
    c_m : manifest;
    c_slots : slot option array;
    mutable c_clock : int;
    mutable c_hits : int;
    mutable c_misses : int;
  }

  let create ?(slots = 4) dev m =
    { c_dev = dev; c_m = m; c_slots = Array.make (max 1 slots) None;
      c_clock = 0; c_hits = 0; c_misses = 0 }

  let chunk t c =
    if c < 0 || c >= n_chunks t.c_m then None
    else begin
      t.c_clock <- t.c_clock + 1;
      let found = ref None in
      Array.iter
        (fun s ->
          match s with
          | Some sl when sl.sl_chunk = c -> found := Some sl
          | _ -> ())
        t.c_slots;
      match !found with
      | Some sl ->
          sl.sl_stamp <- t.c_clock;
          t.c_hits <- t.c_hits + 1;
          Some sl.sl_data
      | None -> (
          t.c_misses <- t.c_misses + 1;
          match read_chunk t.c_dev t.c_m c with
          | None -> None
          | Some data ->
              (* evict the least recently used slot *)
              let victim = ref 0 and best = ref max_int in
              Array.iteri
                (fun i s ->
                  let stamp =
                    match s with None -> -1 | Some sl -> sl.sl_stamp
                  in
                  if stamp < !best then begin
                    best := stamp;
                    victim := i
                  end)
                t.c_slots;
              t.c_slots.(!victim) <-
                Some { sl_chunk = c; sl_data = data; sl_stamp = t.c_clock };
              Some data)
    end

  let record t i =
    if i < 0 || i >= t.c_m.total then None
    else begin
      let c = chunk_of_index t.c_m i in
      match chunk t c with
      | None -> None
      | Some data -> Some data.(i - t.c_m.chunk_first.(c))
    end

  let stats t = (t.c_hits, t.c_misses)
end
