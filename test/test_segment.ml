(* Segment-format tests, mirroring test_storage.ml's crash discipline:
   truncation, bit-flips, chunk-boundary torn writes and crash-resume
   over the in-memory device, streaming ≡ materialized read
   equivalence, plus the Merkle property suite (incremental builder vs
   recursive reference, slice proofs, wrong-slice rejection). *)

module Device = Dd_store.Device
module Mem = Dd_store.Device.Mem
module Merkle = Dd_crypto.Merkle
module Segment = Dd_segment.Segment

(* --- Merkle properties ---------------------------------------------------- *)

let leaves_gen =
  QCheck.(list_of_size (Gen.int_range 0 40) (string_of_size (Gen.int_range 0 24)))

let prop_builder_matches_reference =
  QCheck.Test.make ~name:"incremental root = recursive reference root"
    ~count:300 leaves_gen (fun leaves ->
      let b = Merkle.create () in
      List.iter (Merkle.add b) leaves;
      String.equal (Merkle.root b) (Merkle.root_of_leaves leaves))

let prop_proofs_verify =
  QCheck.Test.make ~name:"every leaf's proof verifies" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 24) (string_of_size (Gen.int_range 0 16)))
    (fun leaves ->
      let hashes = List.map Merkle.leaf_hash leaves in
      let root = Merkle.root_of_leaves leaves in
      List.for_all
        (fun i ->
          let proof = Merkle.proof_of_hashes hashes i in
          Merkle.verify ~root ~leaf_digest:(List.nth hashes i) proof)
        (List.init (List.length leaves) Fun.id))

let prop_wrong_leaf_rejected =
  QCheck.Test.make ~name:"proof rejects a substituted leaf" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 2 24) (string_of_size (Gen.int_range 0 16)))
        small_nat)
    (fun (leaves, idx) ->
      let n = List.length leaves in
      let i = idx mod n in
      let hashes = List.map Merkle.leaf_hash leaves in
      let root = Merkle.root_of_leaves leaves in
      let proof = Merkle.proof_of_hashes hashes i in
      let tampered = Merkle.leaf_hash (List.nth leaves i ^ "!") in
      not (Merkle.verify ~root ~leaf_digest:tampered proof))

let prop_leaf_update_changes_root =
  QCheck.Test.make ~name:"updating one leaf changes the root" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 24) (string_of_size (Gen.int_range 0 16)))
        small_nat)
    (fun (leaves, idx) ->
      let n = List.length leaves in
      let i = idx mod n in
      let leaves' =
        List.mapi (fun j l -> if j = i then l ^ "\x01" else l) leaves
      in
      not (String.equal (Merkle.root_of_leaves leaves) (Merkle.root_of_leaves leaves')))

let test_merkle_domain_separation () =
  (* a leaf whose payload happens to equal an interior node's input must
     not collide with that node *)
  let l = Merkle.leaf_hash "ab" and n = Merkle.node_hash "a" "b" in
  Alcotest.(check bool) "leaf/node domains disjoint" false (String.equal l n);
  Alcotest.(check string) "empty tree root" (Dd_crypto.Sha256.digest "")
    (Merkle.root_of_leaves [])

(* --- segment helpers ------------------------------------------------------ *)

let record i = Printf.sprintf "rec-%04d-%s" i (String.make (i mod 7) 'x')

let write_segment ?(chunk_size = 8) dev n =
  let w = Segment.create_writer ~chunk_size dev ~kind:"test" in
  for i = 0 to n - 1 do
    Segment.append w (record i)
  done;
  Segment.seal w

let expect_sealed dev =
  match Segment.load dev with
  | Segment.Sealed m -> m
  | _ -> Alcotest.fail "expected sealed segment"

(* --- segment roundtrip ---------------------------------------------------- *)

let test_segment_roundtrip () =
  List.iter
    (fun (n, cs) ->
      let b = Mem.create () in
      let dev = Mem.device b in
      let m = write_segment ~chunk_size:cs dev n in
      let m' = expect_sealed dev in
      Alcotest.(check int) "total" n m'.Segment.total;
      Alcotest.(check string) "root stable" m.Segment.root m'.Segment.root;
      (match Segment.read_all dev m' with
      | None -> Alcotest.fail "read_all failed"
      | Some recs ->
          Alcotest.(check int) "record count" n (Array.length recs);
          Array.iteri
            (fun i r -> Alcotest.(check string) "record" (record i) r)
            recs))
    [ (0, 8); (1, 8); (7, 8); (8, 8); (9, 8); (100, 8); (100, 1); (64, 64) ]

let prop_stream_eq_materialized =
  QCheck.Test.make ~name:"iter_records = read_all" ~count:100
    QCheck.(pair (int_range 0 60) (int_range 1 9))
    (fun (n, cs) ->
      let b = Mem.create () in
      let dev = Mem.device b in
      let m = write_segment ~chunk_size:cs dev n in
      let streamed = ref [] in
      let ok =
        Segment.iter_records dev m (fun i p -> streamed := (i, p) :: !streamed)
      in
      let streamed = List.rev !streamed in
      match Segment.read_all dev m with
      | None -> false
      | Some recs ->
          ok
          && List.length streamed = Array.length recs
          && List.for_all2
               (fun (i, p) (j, q) -> i = j && String.equal p q)
               streamed
               (Array.to_list (Array.mapi (fun i r -> (i, r)) recs)))

let prop_chunking_invariance =
  QCheck.Test.make
    ~name:"chunk roots are chunking-local, top root commits to them" ~count:60
    QCheck.(int_range 0 50)
    (fun n ->
      (* same records, two chunk sizes: chunk roots differ but each
         sealed manifest's top root is exactly the Merkle root of its
         own chunk roots *)
      let seal cs =
        let b = Mem.create () in
        write_segment ~chunk_size:cs (Mem.device b) n
      in
      let m1 = seal 4 and m2 = seal 16 in
      String.equal m1.Segment.root
        (Merkle.root_of_leaves (Array.to_list m1.Segment.chunk_root))
      && String.equal m2.Segment.root
           (Merkle.root_of_leaves (Array.to_list m2.Segment.chunk_root)))

(* --- in-place chunk reads ---------------------------------------------------- *)

module Wal = Dd_store.Wal
module Wire = Dd_codec.Wire

(* The chunk reader [read_chunk] replaced: scan the chunk's frames into
   payload copies, decode each payload into a record copy, then check
   the count and the Merkle root. *)
let scan_read_chunk (dev : Device.t) (m : Segment.manifest) ~check_root =
  let bytes = dev.Device.log_read ~pos:m.Segment.chunk_pos.(0) ~len:m.Segment.chunk_len.(0) in
  if String.length bytes <> m.Segment.chunk_len.(0) then None
  else
    let payloads, stopped = Wal.scan bytes in
    if stopped <> String.length bytes || List.length payloads <> m.Segment.chunk_count.(0) then None
    else
      let data p =
        Wire.decode p (fun r ->
            if Wire.get_varint r = 1 then Wire.get_bytes r else raise (Wire.Malformed "tag"))
      in
      let records = List.filter_map data payloads in
      if List.length records <> List.length payloads then None
      else if check_root
           && not (String.equal (Merkle.root_of_leaves records) m.Segment.chunk_root.(0))
      then None
      else Some (Array.of_list records)

(* A data frame as [Segment.append] writes it, or one with another
   [tag] field or a wrong [len] field. *)
let data_frame ?(tag = "\x01") ?len r =
  let w = Wire.writer () in
  Wire.put_varint w (Option.value len ~default:(String.length r));
  Wal.frame (tag ^ Wire.contents w ^ r)

(* A frame of each kind, with the record a reader that skipped one of
   the payload checks would return for it, so that such a reader
   passes the Merkle check and only the payload checks tell the two
   apart. *)
let frame_of (kind, r) =
  let k = String.length r in
  match kind with
  | 0 | 1 | 2 -> (data_frame r, r)
  | 3 -> (data_frame ~tag:(if k mod 2 = 0 then "\x02" else "\x00") r, r)
  | 4 when k > 0 -> (data_frame ~len:(k - 1) r, String.sub r 0 (k - 1))
  | 4 -> (data_frame ~len:1 r, r)
  | _ -> (data_frame ~tag:"\x81\x00" r, r)  (* tag 1, not in its shortest form *)

let prop_read_chunk_in_place =
  QCheck.Test.make ~name:"in-place read_chunk = scan" ~count:1000 ~long_factor:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 8) (pair (int_range 0 5) (string_of_size (Gen.int_range 0 40))))
        (triple (int_range 0 4) (int_range 0 1_000_000) (int_range (-2) 2)))
    (fun (frames, (mode, r, delta)) ->
      let frames = List.map frame_of frames in
      let chunk = Bytes.of_string (String.concat "" (List.map fst frames)) in
      let len = Bytes.length chunk in
      let count = List.length frames in
      (* one mutation: a flipped byte, a short read, a cut chunk, or a
         wrong record count *)
      let chunk_len, count =
        match mode with
        | 1 when len > 0 ->
            let i = r mod len in
            Bytes.set chunk i (Char.chr (Char.code (Bytes.get chunk i) lxor (1 + (r mod 255))));
            (len, count)
        | 2 -> (len + 1 + (r mod 3), count)
        | 3 -> (r mod (len + 1), count)
        | 4 -> (len, count + delta)
        | _ -> (len, count)
      in
      let b = Mem.create () in
      let dev = Mem.device b in
      dev.Device.log_append ("pre" ^ Bytes.to_string chunk);
      dev.Device.log_sync ();
      let manifest root =
        { Segment.kind = "t"; chunk_size = 8; total = count; chunk_first = [| 0 |];
          chunk_count = [| count |]; chunk_root = [| root |]; chunk_pos = [| 3 |];
          chunk_len = [| chunk_len |]; root = "" }
      in
      (* the root the records parse to, when they parse, so a clean
         chunk passes the Merkle check *)
      let root =
        match scan_read_chunk dev (manifest "") ~check_root:false with
        | Some records -> Merkle.root_of_leaves (Array.to_list records)
        | None -> Merkle.root_of_leaves (List.map snd frames)
      in
      let m = manifest root in
      scan_read_chunk dev m ~check_root:true = Segment.read_chunk dev m 0)

(* --- corruption ------------------------------------------------------------ *)

let prop_truncation_total =
  QCheck.Test.make ~name:"load is total under truncation" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (n, cut_raw) ->
      let b = Mem.create () in
      let dev = Mem.device b in
      ignore (write_segment ~chunk_size:4 dev n);
      let log = Mem.durable_log b in
      let cut = cut_raw mod (String.length log + 1) in
      let b' = Mem.create () in
      let dev' = Mem.device b' in
      dev'.Device.log_append (String.sub log 0 cut);
      dev'.Device.log_sync ();
      match Segment.load dev' with
      | Segment.Empty -> cut = 0
      | Segment.Sealed m -> m.Segment.total = n (* cut landed after footer *)
      | Segment.Partial { Segment.total = next_index; _ } ->
          (* checkpoints land at full chunks, plus seal's final partial
             trailer just before the footer *)
          next_index <= n && (next_index mod 4 = 0 || next_index = n)
      | Segment.Corrupt _ -> true)

let prop_bitflip_detected =
  QCheck.Test.make ~name:"bit-flip never yields wrong records" ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 10_000_000))
    (fun (n, r) ->
      let b = Mem.create () in
      let dev = Mem.device b in
      let m = write_segment ~chunk_size:4 dev n in
      let log = Bytes.of_string (Mem.durable_log b) in
      let bit = r mod (8 * Bytes.length log) in
      let i = bit / 8 in
      Bytes.set log i
        (Char.chr (Char.code (Bytes.get log i) lxor (1 lsl (bit mod 8))));
      let b' = Mem.create () in
      let dev' = Mem.device b' in
      dev'.Device.log_append (Bytes.to_string log);
      dev'.Device.log_sync ();
      (* wherever the flip landed: either the load classifies the file as
         damaged, or every chunk that still reads back yields the
         original records (the flip hit the torn-tail-equivalent) *)
      match Segment.load dev' with
      | Segment.Empty | Segment.Partial _ | Segment.Corrupt _ -> true
      | Segment.Sealed m' ->
          String.equal m'.Segment.root m.Segment.root
          && List.for_all
               (fun c ->
                 match Segment.read_chunk dev' m' c with
                 | None -> true (* detected *)
                 | Some recs ->
                     Array.to_list recs
                     = List.init (Array.length recs) (fun i ->
                           record (m'.Segment.chunk_first.(c) + i)))
               (List.init (Segment.n_chunks m') Fun.id))

(* --- torn writes & resume -------------------------------------------------- *)

let prop_torn_write_resumes_cleanly =
  QCheck.Test.make ~name:"crash mid-write resumes from last checkpoint"
    ~count:150
    QCheck.(triple (int_range 1 60) (int_range 0 60) (int_range 0 4096))
    (fun (n, stop_raw, keep) ->
      let stop = stop_raw mod (n + 1) in
      let chunk_size = 8 in
      (* reference: the uninterrupted segment *)
      let ref_b = Mem.create () in
      let ref_m = write_segment ~chunk_size (Mem.device ref_b) n in
      (* crashed run: write [stop] records, then power-cut with an
         arbitrary prefix of the unsynced tail surviving (chunk-boundary
         torn writes included) *)
      let b = Mem.create () in
      let dev = Mem.device b in
      let w = Segment.create_writer ~chunk_size dev ~kind:"test" in
      for i = 0 to stop - 1 do
        Segment.append w (record i)
      done;
      Mem.crash ~keep b;
      (* recovery: resume tells us where to restart generation *)
      let resumed, already = Segment.resume dev ~kind:"test" in
      already <= stop
      && already mod chunk_size = 0
      &&
      (for i = already to n - 1 do
         Segment.append resumed (record i)
       done;
       let m = Segment.seal resumed in
       String.equal m.Segment.root ref_m.Segment.root
       && Mem.durable_log b = Mem.durable_log ref_b))

(* --- slice proofs ----------------------------------------------------------- *)

let test_slice_proofs () =
  let b = Mem.create () in
  let dev = Mem.device b in
  let m = write_segment ~chunk_size:8 dev 100 in
  for c = 0 to Segment.n_chunks m - 1 do
    let proof = Segment.slice_proof m c in
    Alcotest.(check bool)
      (Printf.sprintf "slice %d verifies" c)
      true
      (Segment.verify_slice ~root:m.Segment.root
         ~chunk_root:m.Segment.chunk_root.(c) proof);
    (* the proof binds the position: another chunk's root must not fit *)
    let other = (c + 1) mod Segment.n_chunks m in
    Alcotest.(check bool)
      (Printf.sprintf "wrong chunk root rejected at %d" c)
      false
      (Segment.verify_slice ~root:m.Segment.root
         ~chunk_root:m.Segment.chunk_root.(other) proof)
  done

let test_cache () =
  let b = Mem.create () in
  let dev = Mem.device b in
  let m = write_segment ~chunk_size:8 dev 100 in
  let cache = Segment.Cache.create ~slots:2 dev m in
  (* sequential pass: every record through the cache *)
  for i = 0 to 99 do
    match Segment.Cache.record cache i with
    | None -> Alcotest.fail "cache miss on valid record"
    | Some r -> Alcotest.(check string) "cached record" (record i) r
  done;
  let hits, misses = Segment.Cache.stats cache in
  Alcotest.(check int) "one miss per chunk" (Segment.n_chunks m) misses;
  Alcotest.(check int) "rest were hits" (100 - Segment.n_chunks m) hits;
  (* ping-pong across 3 chunks with 2 slots: must still be correct *)
  for i = 0 to 29 do
    let idx = i mod 3 * 8 in
    match Segment.Cache.record cache idx with
    | None -> Alcotest.fail "cache miss on valid record"
    | Some r -> Alcotest.(check string) "ping-pong record" (record idx) r
  done

let test_file_device_segment () =
  Test_helpers.with_temp_dir "ddemos-seg" @@ fun dir ->
  let name = "seg" in
  let dev = Dd_store.File_device.create ~dir ~name in
  let m = write_segment ~chunk_size:8 dev 50 in
  let dev' = Dd_store.File_device.create ~dir ~name in
  let m' = expect_sealed dev' in
  Alcotest.(check string) "root over file backend" m.Segment.root m'.Segment.root;
  match Segment.read_all dev' m' with
  | None -> Alcotest.fail "file-backed read_all failed"
  | Some recs -> Alcotest.(check int) "records" 50 (Array.length recs)

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "segment"
    [ ("merkle",
       Alcotest.test_case "domain separation & empty tree" `Quick
         test_merkle_domain_separation
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_builder_matches_reference; prop_proofs_verify;
              prop_wrong_leaf_rejected; prop_leaf_update_changes_root ]);
      ("format",
       Alcotest.test_case "roundtrip across sizes" `Quick test_segment_roundtrip
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_stream_eq_materialized; prop_chunking_invariance;
              prop_read_chunk_in_place ]);
      ("corruption",
       List.map QCheck_alcotest.to_alcotest
         [ prop_truncation_total; prop_bitflip_detected;
           prop_torn_write_resumes_cleanly ]);
      ("serving",
       [ Alcotest.test_case "slice proofs" `Quick test_slice_proofs;
         Alcotest.test_case "bounded LRU" `Quick test_cache;
         Alcotest.test_case "file backend" `Quick test_file_device_segment ]) ]
