(* Segmented on-disk election state. The EA's set-up emissions, one
   lockstep group (or a wave of them) each, stream straight into one
   segment per consumer, all chunked at the same chunk size. The chunk
   is the durable checkpoint, not the emission — the invariant
   resume_setup leans on: after a crash, every segment's durable record
   count is a chunk multiple, and the least-complete segment names the
   chunk to regenerate from. *)

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

(* Each record kind has a [put_] into a writer; set-up appends through
   one reused writer ([append_chunk]). *)
let encoded put v =
  let w = Wire.writer () in
  put w v;
  Wire.contents w

let put_bb_ballot w (bb : Ea.bb_ballot) =
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
    bb.Ea.bb_parts

let encode_bb_ballot = encoded put_bb_ballot

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

let decode_bb_codes s =
  Wire.decode s (fun r ->
      let serial = Wire.get_varint r in
      let codes =
        Wire.get_array r (fun r ->
            Wire.get_array r (fun r ->
                let iv = Wire.get_bytes r in
                let ct = Wire.get_bytes r in
                ignore (Wire.get_array r Wire.skip_bytes : unit array);
                Wire.skip_bytes r;
                (iv, ct)))
      in
      (serial, codes))

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

let put_vc_record w (parts : Types.vc_line array array) =
  Wire.put_array w (fun w lines -> Wire.put_array w put_vc_line lines) parts

let decode_vc_record s =
  Wire.decode s (fun r ->
      Wire.get_array r (fun r -> Wire.get_array r get_vc_line))

let put_trustee_record w (parts : Ea.trustee_part_data array) =
  Wire.put_array w
    (fun w (d : Ea.trustee_part_data) ->
      (* lint: allow secret-taint trustee segments are the trustee's own at-rest state on its own disk, not a network message; each trustee receives only its shares *)
      Wire.put_array w
        (fun w row -> Wire.put_array w Messages.put_vss_share row)
        d.Ea.t_shares;
      (* lint: allow secret-taint trustee segments are the trustee's own at-rest state on its own disk, not a network message *)
      Messages.put_share w d.Ea.t_zk_state_share;
      Messages.put_tag w d.Ea.t_zk_state_tag)
    parts

let decode_trustee_record (_ : Group_ctx.t) s =
  Wire.decode s (fun r ->
      Wire.get_array r (fun r ->
          let t_shares =
            Wire.get_array r (fun r -> Wire.get_array r Messages.get_vss_share)
          in
          let t_zk_state_share = Messages.get_share r in
          let t_zk_state_tag = Messages.get_tag r in
          { Ea.t_shares; t_zk_state_share; t_zk_state_tag }))

let put_voter_ballot w (b : Types.ballot) =
  Wire.put_varint w b.Types.serial;
  List.iter
    (fun (p : Types.ballot_part) ->
      Wire.put_array w
        (fun w (l : Types.ballot_line) ->
          Wire.put_bytes w l.Types.vote_code;
          Wire.put_bytes w l.Types.receipt)
        p.Types.lines)
    [ b.Types.part_a; b.Types.part_b ]

let encode_voter_ballot = encoded put_voter_ballot

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

(* Append [v], encoded by [put] into the reused writer [w], unless
   this segment already holds record [index] durably (a resumed run
   where this segment was ahead of the least-complete one).
   Deterministic regeneration makes the skip sound: the bytes that
   would be appended are the bytes already there. *)
let append_once w slot ~index put v =
  match slot with
  | Writing s when Segment.written s <= index ->
    Wire.clear w;
    put w v;
    Segment.append s (Wire.contents w)
  | Writing _ | Done _ -> ()

let seal_slot = function
  | Done m -> m
  | Writing w -> Segment.seal w

(* lint: allow exception-hygiene — slot names come from segment_names, not a peer *)
let slot_of slots name = List.assoc name slots

(* Append one emission's records to every segment: the one encoder of
   election data, for a fresh and a resumed setup alike. A record goes
   out as it is encoded, into one writer reused throughout, so a record
   costs two copies: the encoding and the frame. *)
let append_chunk cfg slot =
  let w = Wire.writer () in
  fun (ck : Ea.chunk) ->
    Array.iteri
      (fun i bb ->
         let index = ck.Ea.ck_first + i in
         append_once w (slot bb_segment) ~index put_bb_ballot bb;
         (* lint: allow secret-taint the printed-ballot segment is the EA's at-rest spool for the printing facility, not a network message *)
         append_once w (slot ballots_segment) ~index put_voter_ballot ck.Ea.ck_ballots.(i);
         for node = 0 to cfg.Types.nv - 1 do
           append_once w (slot (vc_segment node)) ~index put_vc_record ck.Ea.ck_vc.(node).(i)
         done;
         for t = 0 to cfg.Types.nt - 1 do
           (* lint: allow secret-taint trustee segments are per-trustee at-rest state, delivered out of band like the paper's initialization data *)
           append_once w (slot (trustee_segment t)) ~index put_trustee_record ck.Ea.ck_trustee.(t).(i)
         done)
      ck.Ea.ck_bb

let seal_layout cfg slot static =
  let manifest name = seal_slot (slot name) in
  { l_static = static;
    l_bb = manifest bb_segment;
    l_ballots = manifest ballots_segment;
    l_vc = Array.init cfg.Types.nv (fun i -> manifest (vc_segment i));
    l_trustee = Array.init cfg.Types.nt (fun i -> manifest (trustee_segment i)) }

let run_setup ?pool ~chunk_size ~slots cfg ~seed ~from_chunk =
  let slot = slot_of slots in
  let static =
    Ea.setup_chunks ?pool ~chunk_size ~from_chunk cfg ~seed
      ~emit:(append_chunk cfg slot)
  in
  seal_layout cfg slot static

let write_setup ?pool ?(chunk_size = Ea.default_setup_chunk) devices cfg
    ~seed =
  let slots =
    List.map
      (fun name ->
        (name, Writing (Segment.create_writer ~chunk_size (devices name) ~kind:name)))
      (segment_names cfg)
  in
  run_setup ?pool ~chunk_size ~slots cfg ~seed ~from_chunk:0

(* Whether [st] is the static the EA dealt these segments under:
   serial 0's first receipt share in vc-0 and its part-A ZK-state share
   in trustee-0 carry EA authenticators, and the EA signs as index nv
   (resp. nt) of a clique dealt from the seed, so segments dealt under
   another seed, nv or nt fail here. [vc0] and [trustee0] are manifests
   whose chunk 0 is read, sealed or durable in a partial segment; a
   segment given as [None] is not checked. *)
let ea_sealed devices (st : Ea.static) ~vc0 ~trustee0 =
  let cfg = st.Ea.st_cfg in
  let election_id = cfg.Types.election_id in
  let first name m decode =
    match Segment.read_chunk (devices name) m 0 with
    | Some records when Array.length records > 0 -> decode records.(0)
    | Some _ | None -> None
  in
  let vc_ok vc0 =
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
  let trustee_ok trustee0 =
    match first (trustee_segment 0) trustee0 (decode_trustee_record st.Ea.st_gctx) with
    | Some parts when Array.length parts > 0 ->
      let d = parts.(0) in
      Auth.verify st.Ea.st_trustee_keys.(0) ~signer:cfg.Types.nt
        (Ea.zk_state_body ~election_id ~serial:0 ~part:Types.A ~trustee:0
           d.Ea.t_zk_state_share)
        d.Ea.t_zk_state_tag
    | Some _ | None -> false
  in
  Option.fold ~none:true ~some:vc_ok vc0 && Option.fold ~none:true ~some:trustee_ok trustee0

(* [l] if it is the layout [cfg] names: every segment holds one record
   per voter and the EA tags check under [l]'s static. *)
let checked devices cfg (l : layout) =
  let full (m : Segment.manifest) = m.Segment.total = cfg.Types.n_voters in
  if full l.l_bb && full l.l_ballots && Array.for_all full l.l_vc
     && Array.for_all full l.l_trustee
     && ea_sealed devices l.l_static ~vc0:(Some l.l_vc.(0)) ~trustee0:(Some l.l_trustee.(0))
  then Some l
  else None

(* The static part of a layout, re-derived from the seed: cheap (no
   per-ballot crypto). *)
let rederive_static ~chunk_size cfg ~seed =
  Ea.setup_chunks ~chunk_size ~from_chunk:max_int cfg ~seed ~emit:(fun _ -> ())

let load_layout devices cfg ~seed =
  let sealed name =
    match Segment.load (devices name) with Segment.Sealed m -> Some m | _ -> None
  in
  let all names = List.filter_map sealed names in
  let vc = all (List.init cfg.Types.nv vc_segment) in
  let tr = all (List.init cfg.Types.nt trustee_segment) in
  match (sealed bb_segment, sealed ballots_segment) with
  | Some l_bb, Some l_ballots
    when List.length vc = cfg.Types.nv && List.length tr = cfg.Types.nt ->
    let l_static = rederive_static ~chunk_size:l_bb.Segment.chunk_size cfg ~seed in
    (* lint: allow secret-taint — the static's keys only verify EA tags; the comparisons are on record shapes, never secret bytes *)
    checked devices cfg
      { l_static; l_bb; l_ballots; l_vc = Array.of_list vc; l_trustee = Array.of_list tr }
  | _ -> None

(* Resume over classified segments once they are known to be this
   seed's: reopen each partial one at its last checkpoint (truncating
   what follows), regenerate from the least-complete one, and seal. *)
let resume_classified ?pool ~chunk_size ~classified devices cfg ~seed =
  let slots =
    List.map
      (fun (name, c) ->
        match c with
        | `Sealed m -> (name, Done m)
        | `Fresh dev ->
            (name, Writing (Segment.create_writer ~chunk_size dev ~kind:name))
        | `Partial (dev, _) ->
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
     and run_setup writes nothing and returns the existing manifests.
     Sealed or freshly written, the layout is returned only if it is
     the one [cfg] and [seed] name. *)
  (* lint: allow secret-taint — the static's keys only verify EA tags; the comparisons are on record shapes, never secret bytes *)
  checked devices cfg (run_setup ?pool ~chunk_size ~slots cfg ~seed ~from_chunk)

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
        | Segment.Partial m ->
            see m.Segment.chunk_size;
            (name, `Partial (dev, m))
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
  (* Serial 0's EA tags, wherever a durable chunk holds them, must
     check under this seed's static before any segment is truncated or
     appended to: a dir dealt under another seed is refused untouched. *)
  let durable name =
    match List.assoc_opt name classified with
    | Some (`Sealed m | `Partial (_, m)) when Segment.n_chunks m > 0 -> Some m
    | Some _ | None -> None
  in
  let vc0 = durable (vc_segment 0) and trustee0 = durable (trustee_segment 0) in
  if (Option.is_some vc0 || Option.is_some trustee0)
     (* lint: allow secret-taint — the static's keys only verify EA tags; the comparisons are on record shapes, never secret bytes *)
     && not (ea_sealed devices (rederive_static ~chunk_size cfg ~seed) ~vc0 ~trustee0)
  then None
  else resume_classified ?pool ~chunk_size ~classified devices cfg ~seed

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
