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

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Nothing touches the disk before the first write: a device opened
   only to be read (a probe for a segment that may not exist) leaves
   the directory as it was, and reads see an absent file as an empty
   log. The first [log_append] or [log_reset] makes the directory and
   opens the channel. *)
let create ~dir ~name : Device.t =
  let lp = Filename.concat dir (name ^ ".wal") in
  let oc = ref None in
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
  { Device.log_append = (fun s -> output_string (out ()) s);
    log_sync = flush_out;
    log_contents =
      (fun () ->
         flush_out ();
         Option.value ~default:"" (read_file lp));
    log_size =
      (fun () ->
         flush_out ();
         match open_in_bin lp with
         | exception Sys_error _ -> 0
         | ic ->
           let n = in_channel_length ic in
           close_in ic;
           n);
    log_read =
      (fun ~pos ~len ->
         flush_out ();
         match open_in_bin lp with
         | exception Sys_error _ -> ""
         | ic ->
           let n = in_channel_length ic in
           let pos = max 0 (min pos n) in
           let len = max 0 (min len (n - pos)) in
           seek_in ic pos;
           let s = really_input_string ic len in
           close_in ic;
           s);
    log_reset =
      (fun s ->
         Option.iter close_out !oc;
         oc := None;
         make_dir ();
         let tmp = lp ^ ".tmp" in
         write_file tmp s;
         Sys.rename tmp lp) }
