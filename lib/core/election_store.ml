(* Segmented on-disk election state. The EA's chunked setup emissions
   stream straight into one segment per consumer, all chunked at the
   setup chunk size so an emission is exactly one durable checkpoint
   per segment — the invariant resume_setup leans on: after a crash,
   every segment's durable record count is a chunk multiple, and the
   least-complete segment names the chunk to regenerate from. *)

module Wire = Dd_codec.Wire
module Device = Dd_store.Device
module Segment = Dd_segment.Segment
module Group_ctx = Dd_group.Group_ctx
module Elgamal = Dd_commit.Elgamal
module Ballot_proof = Dd_zkp.Ballot_proof

let need = function
  | Some x -> x
  | None -> raise (Wire.Malformed "election_store")

(* --- record codecs ----------------------------------------------------- *)

let put_elgamal w c = Wire.put_bytes w (Elgamal.encode c)
let get_elgamal r = need (Elgamal.decode (Wire.get_bytes r))

let encode_bb_ballot (bb : Ea.bb_ballot) =
  let w = Wire.writer () in
  Wire.put_varint w bb.Ea.bb_serial;
  Wire.put_array w
    (fun w entries ->
      Wire.put_array w
        (fun w (e : Ea.bb_part_entry) ->
          let iv, ct = e.Ea.enc_code in
          Wire.put_bytes w iv;
          Wire.put_bytes w ct;
          Wire.put_array w put_elgamal e.Ea.commitment;
          Wire.put_bytes w (Ballot_proof.encode_first_move e.Ea.zk_first))
        entries)
    bb.Ea.bb_parts;
  Wire.contents w

let decode_bb_ballot s =
  Wire.decode s (fun r ->
      let bb_serial = Wire.get_varint r in
      let bb_parts =
        Wire.get_array r (fun r ->
            Wire.get_array r (fun r ->
                let iv = Wire.get_bytes r in
                let ct = Wire.get_bytes r in
                let commitment = Wire.get_array r get_elgamal in
                let zk_first =
                  need (Ballot_proof.decode_first_move (Wire.get_bytes r))
                in
                { Ea.enc_code = (iv, ct); commitment; zk_first }))
      in
      { Ea.bb_serial; bb_parts })

let put_vc_line w (l : Types.vc_line) =
  Wire.put_bytes w l.Types.code_hash;
  Wire.put_bytes w l.Types.salt;
  Messages.put_share w l.Types.receipt_share;
  Wire.put_option w Messages.put_tag l.Types.share_tag

let get_vc_line r =
  let code_hash = Wire.get_bytes r in
  let salt = Wire.get_bytes r in
  let receipt_share = Messages.get_share r in
  let share_tag = Wire.get_option r Messages.get_tag in
  { Types.code_hash; salt; receipt_share; share_tag }

let encode_vc_record (parts : Types.vc_line array array) =
  let w = Wire.writer () in
  Wire.put_array w (fun w lines -> Wire.put_array w put_vc_line lines) parts;
  Wire.contents w

let decode_vc_record s =
  Wire.decode s (fun r ->
      Wire.get_array r (fun r -> Wire.get_array r get_vc_line))

let encode_trustee_record (parts : Ea.trustee_part_data array) =
  let w = Wire.writer () in
  Wire.put_array w
    (fun w (d : Ea.trustee_part_data) ->
      (* lint: allow secret-taint trustee segments are the trustee's own at-rest state on its own disk, not a network message; each trustee receives only its shares *)
      Wire.put_array w
        (fun w row -> Wire.put_array w Messages.put_vss_share row)
        d.Ea.t_shares;
      (* lint: allow secret-taint trustee segments are the trustee's own at-rest state on its own disk, not a network message *)
      Messages.put_share w d.Ea.t_zk_state_share;
      Messages.put_tag w d.Ea.t_zk_state_tag)
    parts;
  Wire.contents w

let decode_trustee_record (_ : Group_ctx.t) s =
  Wire.decode s (fun r ->
      Wire.get_array r (fun r ->
          let t_shares =
            Wire.get_array r (fun r -> Wire.get_array r Messages.get_vss_share)
          in
          let t_zk_state_share = Messages.get_share r in
          let t_zk_state_tag = Messages.get_tag r in
          { Ea.t_shares; t_zk_state_share; t_zk_state_tag }))

let encode_voter_ballot (b : Types.ballot) =
  let w = Wire.writer () in
  Wire.put_varint w b.Types.serial;
  List.iter
    (fun (p : Types.ballot_part) ->
      Wire.put_array w
        (fun w (l : Types.ballot_line) ->
          Wire.put_bytes w l.Types.vote_code;
          Wire.put_bytes w l.Types.receipt)
        p.Types.lines)
    [ b.Types.part_a; b.Types.part_b ];
  Wire.contents w

let decode_voter_ballot s =
  Wire.decode s (fun r ->
      let serial = Wire.get_varint r in
      let part () =
        { Types.lines =
            Wire.get_array r (fun r ->
                let vote_code = Wire.get_bytes r in
                let receipt = Wire.get_bytes r in
                { Types.vote_code; receipt }) }
      in
      let part_a = part () in
      let part_b = part () in
      { Types.serial; part_a; part_b })

(* --- segment names ------------------------------------------------------ *)

let bb_segment = "bb"
let ballots_segment = "ballots"
let vc_segment i = Printf.sprintf "vc-%d" i
let trustee_segment i = Printf.sprintf "trustee-%d" i
let plain_segment = "plain"

(* --- full-crypto streaming setup ----------------------------------------- *)

type layout = {
  l_static : Ea.static;
  l_bb : Segment.manifest;
  l_ballots : Segment.manifest;
  l_vc : Segment.manifest array;
  l_trustee : Segment.manifest array;
}

(* A segment mid-setup: still being written, or already sealed by a
   run that crashed between seals. *)
type slot = Writing of Segment.writer | Done of Segment.manifest

let segment_names cfg =
  (bb_segment :: ballots_segment
   :: List.init cfg.Types.nv vc_segment)
  @ List.init cfg.Types.nt trustee_segment

(* Append [record] unless this segment already holds it durably (a
   resumed run where this segment was ahead of the least-complete
   one). Deterministic regeneration makes the skip sound: the bytes
   that would be appended are the bytes already there. *)
let append_once slot ~index record =
  match slot with
  | Done _ -> ()
  | Writing w -> if Segment.written w <= index then Segment.append w record

let seal_slot = function
  | Done m -> m
  | Writing w -> Segment.seal w

(* lint: allow exception-hygiene — slot names come from segment_names, not a peer *)
let slot_of slots name = List.assoc name slots

(* Append one chunk's records to every segment: the one encoder of
   election data, shared by the streamed and the in-memory writer. *)
let append_chunk cfg slot (ck : Ea.chunk) =
  let count = Array.length ck.Ea.ck_ballots in
  for i = 0 to count - 1 do
    let index = ck.Ea.ck_first + i in
    append_once (slot bb_segment) ~index
      (encode_bb_ballot ck.Ea.ck_bb.(i));
    (* lint: allow secret-taint the printed-ballot segment is the EA's at-rest spool for the printing facility, not a network message *)
    append_once (slot ballots_segment) ~index
      (encode_voter_ballot ck.Ea.ck_ballots.(i));
    for node = 0 to cfg.Types.nv - 1 do
      append_once (slot (vc_segment node)) ~index
        (encode_vc_record ck.Ea.ck_vc.(node).(i))
    done;
    for t = 0 to cfg.Types.nt - 1 do
      (* lint: allow secret-taint trustee segments are per-trustee at-rest state, delivered out of band like the paper's initialization data *)
      append_once (slot (trustee_segment t)) ~index
        (encode_trustee_record ck.Ea.ck_trustee.(t).(i))
    done
  done

let seal_layout cfg slot static =
  let manifest name = seal_slot (slot name) in
  { l_static = static;
    l_bb = manifest bb_segment;
    l_ballots = manifest ballots_segment;
    l_vc = Array.init cfg.Types.nv (fun i -> manifest (vc_segment i));
    l_trustee = Array.init cfg.Types.nt (fun i -> manifest (trustee_segment i)) }

let fresh_slots ~chunk_size devices cfg =
  List.map
    (fun name ->
      (name, Writing (Segment.create_writer ~chunk_size (devices name) ~kind:name)))
    (segment_names cfg)

let run_setup ?pool ~chunk_size ~slots cfg ~seed ~from_chunk =
  let slot = slot_of slots in
  let static =
    Ea.setup_chunks ?pool ~chunk_size ~from_chunk cfg ~seed
      ~emit:(append_chunk cfg slot)
  in
  seal_layout cfg slot static

let write_setup ?pool ?(chunk_size = Ea.default_setup_chunk) devices cfg
    ~seed =
  run_setup ?pool ~chunk_size ~slots:(fresh_slots ~chunk_size devices cfg)
    cfg ~seed ~from_chunk:0

(* The whole in-memory setup goes through [append_chunk] as one chunk;
   the segment writers cut it at [chunk_size] themselves, so the bytes
   equal a streamed run's. *)
let store_setup ?(chunk_size = Ea.default_setup_chunk) devices (s : Ea.setup) =
  let cfg = s.Ea.cfg in
  let slot = slot_of (fresh_slots ~chunk_size devices cfg) in
  append_chunk cfg slot
    { Ea.ck_index = 0;
      ck_first = 0;
      ck_ballots = s.Ea.ballots;
      ck_bb = s.Ea.bb_ballots;
      ck_vc = Array.map (fun (v : Ea.vc_node_init) -> v.Ea.vc_lines) s.Ea.vc_init;
      ck_trustee = Array.map (fun (t : Ea.trustee_init) -> t.Ea.t_ballots) s.Ea.trustee_init };
  seal_layout cfg slot
    { Ea.st_cfg = cfg;
      st_gctx = Group_ctx.default ();
      st_vc_keys = s.Ea.vc_keys;
      st_trustee_keys = s.Ea.trustee_keys;
      st_hmsk = s.Ea.bb_init.Ea.hmsk;
      st_salt_msk = s.Ea.bb_init.Ea.salt_msk;
      st_msk_shares = Array.map (fun (v : Ea.vc_node_init) -> v.Ea.vc_msk_share) s.Ea.vc_init;
      st_n_chunks = (cfg.Types.n_voters + chunk_size - 1) / chunk_size;
      st_chunk_size = chunk_size }

let resume_setup ?pool ?chunk_size devices cfg ~seed =
  (* classify every segment, discovering the on-disk chunk size *)
  let discovered = ref None in
  let see cs =
    match !discovered with
    | None -> discovered := Some cs
    | Some cs' ->
        if cs <> cs' then
          (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
          invalid_arg "Election_store.resume_setup: inconsistent chunk sizes"
  in
  let classified =
    List.map
      (fun name ->
        let dev = devices name in
        match Segment.load dev with
        | Segment.Empty -> (name, `Fresh dev)
        | Segment.Sealed m ->
            see m.Segment.chunk_size;
            (name, `Sealed m)
        | Segment.Partial { chunk_size = cs; _ } ->
            see cs;
            (name, `Partial dev)
        | Segment.Corrupt msg ->
            (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
            invalid_arg
              (Printf.sprintf "Election_store.resume_setup: %s: %s" name msg))
      (segment_names cfg)
  in
  let chunk_size =
    match (!discovered, chunk_size) with
    | Some cs, Some cs' when cs <> cs' ->
        (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
        invalid_arg "Election_store.resume_setup: chunk_size mismatch"
    | Some cs, _ -> cs
    | None, Some cs' -> cs'
    | None, None -> Ea.default_setup_chunk
  in
  let slots =
    List.map
      (fun (name, c) ->
        match c with
        | `Sealed m -> (name, Done m)
        | `Fresh dev ->
            (name, Writing (Segment.create_writer ~chunk_size dev ~kind:name))
        | `Partial dev ->
            let w, _already = Segment.resume dev ~kind:name in
            (name, Writing w))
      classified
  in
  (* regenerate from the least-complete segment; checkpoints are
     chunk-aligned, so written/chunk_size is exact for every writer *)
  let from_chunk =
    List.fold_left
      (fun acc (_, slot) ->
        match slot with
        | Done _ -> acc
        | Writing w -> min acc (Segment.written w / chunk_size))
      max_int slots
  in
  (* from_chunk = max_int means every slot is already sealed: keep it,
     so setup_chunks generates nothing (an O(1) static re-derivation)
     and run_setup merely returns the existing manifests *)
  run_setup ?pool ~chunk_size ~slots cfg ~seed ~from_chunk

(* Whether [st] is the static the EA sealed this layout under: serial
   0's first receipt share in vc-0 and its part-A ZK-state share in
   trustee-0 carry EA authenticators, and the EA signs as index nv
   (resp. nt) of a clique dealt from the seed, so a layout dealt under
   another seed, nv or nt fails here. *)
let ea_sealed devices (st : Ea.static) ~vc0 ~trustee0 =
  let cfg = st.Ea.st_cfg in
  let election_id = cfg.Types.election_id in
  let first name m decode =
    match Segment.read_chunk (devices name) m 0 with
    | Some records when Array.length records > 0 -> decode records.(0)
    | Some _ | None -> None
  in
  let vc_ok =
    match first (vc_segment 0) vc0 decode_vc_record with
    | Some parts when Array.length parts = 2 && Array.length parts.(0) > 0 ->
      let line = parts.(0).(0) in
      let share = line.Types.receipt_share in
      (match line.Types.share_tag with
       | Some tag ->
         Auth.verify st.Ea.st_vc_keys.(0) ~signer:cfg.Types.nv
           (Messages.share_body ~election_id ~serial:0 ~part:Types.A ~pos:0 ~node:0 ~share)
           tag
       | None -> false)
    | Some _ | None -> false
  in
  vc_ok
  && begin
    match first (trustee_segment 0) trustee0 (decode_trustee_record st.Ea.st_gctx) with
    | Some parts when Array.length parts > 0 ->
      let d = parts.(0) in
      Auth.verify st.Ea.st_trustee_keys.(0) ~signer:cfg.Types.nt
        (Ea.zk_state_body ~election_id ~serial:0 ~part:Types.A ~trustee:0
           d.Ea.t_zk_state_share)
        d.Ea.t_zk_state_tag
    | Some _ | None -> false
  end

let load_layout devices cfg ~seed =
  (* every segment holds one record per voter *)
  let manifest name =
    match Segment.load (devices name) with
    | Segment.Sealed m when m.Segment.total = cfg.Types.n_voters -> Some m
    | _ -> None
  in
  let all names = List.filter_map manifest names in
  match (manifest bb_segment, manifest ballots_segment) with
  | Some l_bb, Some l_ballots -> (
      let vc = all (List.init cfg.Types.nv vc_segment) in
      let tr = all (List.init cfg.Types.nt trustee_segment) in
      match (vc, tr) with
      | vc0 :: _, trustee0 :: _
        when List.length vc = cfg.Types.nv && List.length tr = cfg.Types.nt ->
        (* re-derive the static part: cheap (no per-ballot crypto) *)
        let static =
          Ea.setup_chunks ~chunk_size:l_bb.Segment.chunk_size
            ~from_chunk:max_int cfg ~seed ~emit:(fun _ -> ())
        in
        (* lint: allow secret-taint — the static's keys only verify EA tags; the comparisons are on record shapes, never secret bytes *)
        if ea_sealed devices static ~vc0 ~trustee0 then
          Some
            { l_static = static;
              l_bb;
              l_ballots;
              l_vc = Array.of_list vc;
              l_trustee = Array.of_list tr }
        else None
      | _ -> None)
  | _ -> None

(* --- readers over a sealed layout ----------------------------------------- *)

let read_trustee_init devices layout i =
  let records =
    match Segment.read_all (devices (trustee_segment i)) layout.l_trustee.(i) with
    | Some r -> r
    (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
    | None -> invalid_arg "Election_store: trustee segment unreadable"
  in
  { Ea.t_id = i;
    Ea.t_ballots =
      Array.map
        (fun payload ->
           match decode_trustee_record layout.l_static.Ea.st_gctx payload with
           | Some parts -> parts
           (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
           | None -> invalid_arg "Election_store: trustee record undecodable")
        records }

let voter_ballot_reader devices layout =
  (* the device is opened on first use: a cluster that never reads a
     voter's ballot never touches the segment *)
  let cache =
    lazy (Segment.Cache.create ~slots:2 (devices ballots_segment) layout.l_ballots)
  in
  fun serial ->
    match Segment.Cache.record (Lazy.force cache) serial with
    | Some payload ->
      (match decode_voter_ballot payload with
       | Some b -> b
       (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
       | None -> invalid_arg "Election_store: ballot record undecodable")
    (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
    | None -> invalid_arg "Election_store: ballot segment unreadable"

(* --- plain profile -------------------------------------------------------- *)

let encode_plain_record ~code_hashes ~salts =
  let w = Wire.writer () in
  Wire.put_array w
    (fun w hs -> Wire.put_array w Wire.put_bytes hs)
    code_hashes;
  Wire.put_array w (fun w ss -> Wire.put_array w Wire.put_bytes ss) salts;
  Wire.contents w

let decode_plain_record s =
  Wire.decode s (fun r ->
      let hashes = Wire.get_array r (fun r -> Wire.get_array r Wire.get_bytes) in
      let salts = Wire.get_array r (fun r -> Wire.get_array r Wire.get_bytes) in
      (hashes, salts))

let plain_record cfg ~seed ~serial =
  let m = cfg.Types.m_options in
  let parts =
    Array.map
      (fun part -> Ballot_gen.gen_part ~seed ~serial ~part ~m)
      [| Types.A; Types.B |]
  in
  encode_plain_record
    ~code_hashes:(Array.map (fun p -> p.Ballot_gen.hashes) parts)
    ~salts:(Array.map (fun p -> p.Ballot_gen.salts) parts)

let write_plain ?(chunk_size = Segment.default_chunk_size) dev cfg ~seed =
  let n = cfg.Types.n_voters in
  let finish w from =
    for serial = from to n - 1 do
      Segment.append w (plain_record cfg ~seed ~serial)
    done;
    Segment.seal w
  in
  match Segment.load dev with
  | Segment.Empty ->
      finish (Segment.create_writer ~chunk_size dev ~kind:plain_segment) 0
  | Segment.Partial _ ->
      let w, from = Segment.resume dev ~kind:plain_segment in
      finish w from
  | Segment.Sealed m ->
      (* idempotent reopen of a finished run *)
      if m.Segment.total = n then m
      (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
      else invalid_arg "Election_store.write_plain: sealed with wrong total"
  | Segment.Corrupt msg ->
      (* lint: allow exception-hygiene — operator-facing local-disk validation, not a network input *)
      invalid_arg ("Election_store.write_plain: corrupt: " ^ msg)

(* One chunk of a plain segment, verified against a trusted [root]
   using only that chunk's bytes: slice binding, CRC/Merkle, record
   structure, within-part hash distinctness. The unit of both the
   streaming whole-segment audit and independent slice auditors. *)
let verify_plain_slice dev cfg (m : Segment.manifest) ~root c =
  let mo = cfg.Types.m_options in
  let err = ref None in
  let fail msg =
    if !err = None then err := Some (Printf.sprintf "chunk %d: %s" c msg)
  in
  if c < 0 || c >= Segment.n_chunks m then fail "no such chunk"
  else if
    (* slice binding: this chunk's root commits into the trusted root *)
    not
      (Segment.verify_slice ~root ~chunk_root:m.Segment.chunk_root.(c)
         (Segment.slice_proof m c))
  then fail "slice proof does not verify"
  else begin
    match Segment.read_chunk dev m c with
    | None -> fail "chunk bytes fail CRC/Merkle verification"
    | Some records ->
        Array.iter
          (fun rec_bytes ->
            match decode_plain_record rec_bytes with
            | None -> fail "undecodable record"
            | Some (hashes, salts) ->
                if
                  Array.length hashes <> 2
                  || Array.length salts <> 2
                  || Array.exists (fun h -> Array.length h <> mo) hashes
                  || Array.exists (fun s -> Array.length s <> mo) salts
                then fail "record shape does not match the configuration"
                else if
                  Array.exists
                    (fun hs ->
                      Array.exists (fun h -> String.length h <> 32) hs)
                    hashes
                  || Array.exists
                       (fun ss ->
                         Array.exists
                           (fun s -> String.length s <> Types.salt_bytes)
                           ss)
                       salts
                then fail "malformed hash or salt length"
                else
                  (* within a part, the m salted hashes must be
                     distinct — else two options would share a
                     validation line *)
                  Array.iter
                    (fun hs ->
                      let tbl = Hashtbl.create mo in
                      Array.iter
                        (fun h ->
                          if Hashtbl.mem tbl h then
                            fail "duplicate code hash within a part"
                          else Hashtbl.add tbl h ())
                        hs)
                    hashes)
          records
  end;
  match !err with None -> Ok m.Segment.chunk_count.(c) | Some e -> Error e

let verify_plain dev cfg (m : Segment.manifest) =
  if m.Segment.total <> cfg.Types.n_voters then
    Error "record count does not match the configuration"
  else begin
    let err = ref None in
    let c = ref 0 in
    while !err = None && !c < Segment.n_chunks m do
      (match verify_plain_slice dev cfg m ~root:m.Segment.root !c with
       | Ok _ -> ()
       | Error e -> err := Some e);
      incr c
    done;
    match !err with None -> Ok m.Segment.total | Some e -> Error e
  end
