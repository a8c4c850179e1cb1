(* The real-disk backend: an append-only log file, replaced whole via
   the write-temp-then-rename idiom. This is the single module in lib/
   allowed to touch the filesystem (ddemos-lint R2 carries a scoped
   exemption for it — see docs/INVARIANTS.md); every other consumer of
   durability goes through the sans-IO {!Device} record this module
   produces.

   Durability model: [log_sync] flushes the channel. That is the
   page-cache boundary the simulator's Mem backend mimics; a true
   fsync-to-platter would need Unix.fsync, which we deliberately avoid
   so bin/ tooling stays portable to the plain OCaml stdlib. *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Nothing touches the disk before the first write: a device opened
   only to be read (a probe for a segment that may not exist) leaves
   the directory as it was, and reads see an absent file as an empty
   log. The first [log_append] or [log_reset] makes the directory and
   opens the out channel. Reads share one in channel, opened on the
   first read that finds the file. The log only grows between resets,
   so bytes the channel has buffered stay valid and a later append is
   read from the descriptor; [log_reset] renames a new file into
   place, so it drops the channel and the next read reopens it. The
   device is its file's only writer. *)
let create ~dir ~name : Device.t =
  let lp = Filename.concat dir (name ^ ".wal") in
  let oc = ref None and ic = ref None in
  let make_dir () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 in
  let out () =
    match !oc with
    | Some c -> c
    | None ->
      make_dir ();
      (* append mode: reopening an existing device continues its log *)
      let c = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 lp in
      oc := Some c;
      c
  in
  let flush_out () = Option.iter flush !oc in
  (* the in channel and the log's current length, after flushing the
     out channel; [None] while the file does not exist *)
  let inp () =
    flush_out ();
    let c =
      match !ic with
      | Some _ as c -> c
      | None ->
        (match open_in_bin lp with
         | exception Sys_error _ -> None
         | c -> ic := Some c; Some c)
    in
    Option.map (fun c -> (c, in_channel_length c)) c
  in
  let read ~pos ~len =
    match inp () with
    | None -> ""
    | Some (c, n) ->
      let pos = max 0 (min pos n) in
      let len = max 0 (min len (n - pos)) in
      seek_in c pos;
      really_input_string c len
  in
  { Device.log_append = (fun s -> output_string (out ()) s);
    log_sync = flush_out;
    log_contents = (fun () -> read ~pos:0 ~len:max_int);
    log_size = (fun () -> match inp () with None -> 0 | Some (_, n) -> n);
    log_read = read;
    log_reset =
      (fun s ->
         Option.iter close_out !oc;
         Option.iter close_in !ic;
         oc := None;
         ic := None;
         make_dir ();
         let tmp = lp ^ ".tmp" in
         write_file tmp s;
         Sys.rename tmp lp) }
