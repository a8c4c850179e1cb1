(* Bulletin Board node (Section III-G): an isolated public repository.
   BB nodes never talk to each other; readers query all of them and
   trust the majority answer (see Bb_reader). Writes are restricted:
   vote sets must arrive identically from fv+1 VC nodes, msk shares
   must reconstruct the committed msk, trustee posts are accepted from
   authenticated trustees and cross-checked where possible.

   The node publishes, in order: its initialization data (implicitly,
   it is constructed with it), the agreed final vote-code set, the
   decrypted vote codes, the encrypted (homomorphic) tally, the
   unused-part openings and ZK final moves from the trustees, and
   finally the election tally. *)

module Shamir_bytes = Dd_vss.Shamir_bytes
module Elgamal = Dd_commit.Elgamal
module Elgamal_vss = Dd_vss.Elgamal_vss
module Ballot_proof = Dd_zkp.Ballot_proof
module Group_ctx = Dd_group.Group_ctx
module Store = Dd_store.Store
module Wire = Dd_codec.Wire

type trustee_posts = {
  openings : (int * Types.part_id, Elgamal_vss.share array array) Hashtbl.t;
    (* key: serial, part; per trustee entries appended under distinct x *)
  mutable tally_shares : (int * Elgamal_vss.share array) list;  (* trustee -> per-coordinate *)
  zk_posts : (int * Types.part_id, (int * string) list ref) Hashtbl.t;
    (* (serial, part) -> (trustee, encoded final moves) for identical-copy matching *)
}

type published = {
  mutable final_set : (int * string) list option;
  mutable msk : string option;
  (* (serial, part, pos) -> decrypted vote code *)
  mutable opened_codes : (int * Types.part_id * int, string) Hashtbl.t option;
  (* (serial, part) -> per-position openings (position -> coordinate) *)
  unused_openings : (int * Types.part_id, Elgamal.opening array array) Hashtbl.t;
  (* (serial, part) -> per-position ZK final moves *)
  zk_finals : (int * Types.part_id, Ballot_proof.final_move array) Hashtbl.t;
  mutable encrypted_tally : Elgamal.t array option;  (* Esum, per option *)
  mutable tally : Types.tally option;
}

type t = {
  me : int;
  cfg : Types.config;
  gctx : Group_ctx.t;
  init : Ea.bb_init;
  (* the ballot table: this node's sealed "bb" segment, one chunk
     resident at a time *)
  board : Board.t;
  (* submissions *)
  mutable vote_sets : (int * (int * string) list) list;   (* VC node -> set *)
  mutable msk_shares : Shamir_bytes.share list;
  posts : trustee_posts;
  pub : published;
  (* observability callbacks for the harness *)
  mutable on_final_set : (t -> unit) list;
  mutable on_tally : (t -> unit) list;
  (* durable input journal: the BB is event-sourced, so replaying the
     accepted writes through the (deterministic) handlers rebuilds all
     published state after a cold restart *)
  mutable journal : Store.t option;
}

let create_bare ~board ~cfg ~gctx ~init ~me () =
  { me; cfg; gctx; init; board;
    vote_sets = []; msk_shares = [];
    posts = { openings = Hashtbl.create 64; tally_shares = []; zk_posts = Hashtbl.create 64 };
    pub =
      { final_set = None; msk = None; opened_codes = None;
        unused_openings = Hashtbl.create 64; zk_finals = Hashtbl.create 64;
        encrypted_tally = None; tally = None };
    on_final_set = []; on_tally = [];
    journal = None }

let attach_journal t durable =
  match durable with
  | None -> ()
  | Some device ->
    (* pure input journal, never compacted: write volume is bounded by
       the protocol (nv submissions + a few posts per trustee) *)
    t.journal <- Some (Store.create ~snapshot:(fun () -> "") device)

let create ?durable ~board ~cfg ~gctx ~init ~me () =
  let t = create_bare ~board ~cfg ~gctx ~init ~me () in
  attach_journal t durable;
  t

(* Journal an accepted write before its effects become observable; the
   journal is absent during replay, so recovery never re-logs. *)
let journal_input t msg =
  match t.journal with
  | Some store -> Store.log store (Messages.encode_bb_msg msg)
  | None -> ()

let init t = t.init
let board t = t.board

let subscribe_final_set t f = t.on_final_set <- f :: t.on_final_set
let subscribe_tally t f = t.on_tally <- f :: t.on_tally

let published t = t.pub

(* --- vote set agreement ---------------------------------------------- *)

let sets_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s1, code1) (s2, code2) -> s1 = s2 && Dd_crypto.Ct.equal code1 code2)
       a b

(* Decrypt every vote code in the initialization data with the
   reconstructed msk and publish the mapping. *)
let open_codes t msk =
  let table = Hashtbl.create (Board.n_ballots t.board * 2) in
  (* one chunk resident at a time; a chunk that fails verification
     leaves its codes unopened, which downstream checks then surface *)
  ignore
    (Board.iter t.board (fun (b : Ea.bb_ballot) ->
         List.iter
           (fun part ->
              let entries = b.Ea.bb_parts.(Types.part_index part) in
              Array.iteri
                (fun pos (e : Ea.bb_part_entry) ->
                   let iv, ct = e.Ea.enc_code in
                   match Dd_crypto.Aes128.cbc_decrypt ~key:msk ~iv ct with
                   | code -> Hashtbl.replace table (b.Ea.bb_serial, part, pos) code
                   | exception Invalid_argument _ -> ())
                entries)
           [ Types.A; Types.B ]));
  t.pub.opened_codes <- Some table

(* The position a cast vote code occupies, once codes are opened. *)
let locate_code t ~serial ~code =
  match t.pub.opened_codes with
  | None -> None
  | Some table ->
    let found = ref None in
    List.iter
      (fun part ->
         if !found = None then
           for pos = 0 to t.cfg.Types.m_options - 1 do
             match Hashtbl.find_opt table (serial, part, pos) with
             | Some c when !found = None && Dd_crypto.Ct.equal c code -> found := Some (part, pos)
             | _ -> ()
           done)
      [ Types.A; Types.B ];
    !found

(* Homomorphic sum of the commitments selected by the final vote set. *)
let compute_encrypted_tally t =
  match t.pub.final_set with
  | None -> ()
  | Some set ->
    let m = t.cfg.Types.m_options in
    let zero = Array.make m (Elgamal.zero_commitment t.gctx) in
    let esum =
      List.fold_left
        (fun acc (serial, code) ->
           match locate_code t ~serial ~code with
           | None -> acc
           | Some (part, pos) ->
             (match Board.entries t.board ~serial ~part with
              | Some entries when pos < Array.length entries ->
                let entry = entries.(pos) in
                Array.mapi (fun j c -> Elgamal.add t.gctx c entry.Ea.commitment.(j)) acc
              | _ -> acc))
        zero set
    in
    t.pub.encrypted_tally <- Some esum

let try_reconstruct_msk t =
  if Option.is_none t.pub.msk then begin
    let quorum = t.cfg.Types.nv - t.cfg.Types.fv in
    let shares = t.msk_shares in
    if List.length shares >= quorum then begin
      (* try a bounded number of quorum subsets: Byzantine VC nodes may
         have contributed garbage shares *)
      let arr = Array.of_list shares in
      let n = Array.length arr in
      let attempts = ref 0 in
      let rec try_from start acc k =
        if Option.is_some t.pub.msk || !attempts > 64 then ()
        else if k = 0 then begin
          incr attempts;
          let candidate = Shamir_bytes.reconstruct ~threshold:quorum (List.rev acc) in
          if Dd_crypto.Ct.equal
              (Dd_crypto.Sha256.digest_list [ candidate; t.init.Ea.salt_msk ])
              t.init.Ea.hmsk
          then begin
            t.pub.msk <- Some candidate;
            open_codes t candidate;
            compute_encrypted_tally t
          end
        end else
          for i = start to n - k do
            if Option.is_none t.pub.msk then try_from (i + 1) (arr.(i) :: acc) (k - 1)
          done
      in
      try_from 0 [] quorum
    end
  end

let on_vote_set_submit t ~sender ~set ~msk_share =
  if not (List.mem_assoc sender t.vote_sets) then begin
    journal_input t (Messages.Vote_set_submit { sender; set; msk_share });
    t.vote_sets <- (sender, set) :: t.vote_sets;
    if not (List.exists (fun s -> s.Shamir_bytes.x = msk_share.Shamir_bytes.x) t.msk_shares)
    then t.msk_shares <- msk_share :: t.msk_shares;
    (* publish the final set once fv+1 identical copies arrived *)
    if t.pub.final_set = None then begin
      let matching = List.filter (fun (_, s) -> sets_equal s set) t.vote_sets in
      if List.length matching >= t.cfg.Types.fv + 1 then begin
        t.pub.final_set <- Some set;
        List.iter (fun f -> f t) t.on_final_set
      end
    end;
    try_reconstruct_msk t;
    if t.pub.final_set <> None && t.pub.encrypted_tally = None then
      compute_encrypted_tally t
  end

(* --- trustee posts ----------------------------------------------------- *)

let ht t = t.cfg.Types.ht

(* Openings of unused (or fully unvoted) parts: accumulate trustee
   shares; at ht shares per (serial, part), reconstruct every position's
   coordinate openings and verify them against the BB's commitments. *)
let accept_openings t ~trustee entries =
  ignore trustee;
  List.iter
    (fun (e : Trustee_payload.opening_entry) ->
       let key = (e.Trustee_payload.o_serial, e.Trustee_payload.o_part) in
       if not (Hashtbl.mem t.pub.unused_openings key) then begin
         let existing = Hashtbl.find_all t.posts.openings key in
         (* avoid double-posting by the same trustee: shares carry x *)
         let dup =
           List.exists
             (fun (prev : Elgamal_vss.share array array) ->
                Array.length prev > 0 && Array.length e.Trustee_payload.o_shares > 0
                && Array.length prev.(0) > 0 && Array.length e.Trustee_payload.o_shares.(0) > 0
                && prev.(0).(0).Elgamal_vss.x = e.Trustee_payload.o_shares.(0).(0).Elgamal_vss.x)
             existing
         in
         if not dup then begin
           Hashtbl.add t.posts.openings key e.Trustee_payload.o_shares;
           let all = Hashtbl.find_all t.posts.openings key in
           if List.length all >= ht t then begin
             let serial = e.Trustee_payload.o_serial and part = e.Trustee_payload.o_part in
             match Board.entries t.board ~serial ~part with
             | None -> ()   (* unknown serial (or unreadable chunk): ignore the post *)
             | Some bb_entries ->
             let positions = Array.length bb_entries in
             let m = t.cfg.Types.m_options in
             let selected = List.filteri (fun i _ -> i < ht t) all in
             let openings =
               Array.init positions (fun pos ->
                   Array.init m (fun j ->
                       let shares = List.map (fun sh -> sh.(pos).(j)) selected in
                       Elgamal_vss.reconstruct t.gctx ~threshold:(ht t) shares))
             in
             (* verify each reconstructed opening against the commitment *)
             let ok = ref true in
             Array.iteri
               (fun pos per_coord ->
                  Array.iteri
                    (fun j opening ->
                       if not (Elgamal.verify t.gctx bb_entries.(pos).Ea.commitment.(j) opening)
                       then ok := false)
                    per_coord)
               openings;
             if !ok then Hashtbl.replace t.pub.unused_openings key openings
             else
               (* some share was corrupt: drop the first post and wait
                  for more trustees *)
               ()
           end
         end
       end)
    entries

(* ZK final moves: published once ft+1 trustees post identical bytes. *)
let accept_zk t ~trustee entries =
  let ft = t.cfg.Types.nt - ht t in
  List.iter
    (fun (e : Trustee_payload.zk_entry) ->
       let key = (e.Trustee_payload.z_serial, e.Trustee_payload.z_part) in
       if not (Hashtbl.mem t.pub.zk_finals key) then begin
         let encoded =
           String.concat ""
             (Array.to_list (Array.map Ballot_proof.encode_final_move e.Trustee_payload.z_finals))
         in
         let posts =
           match Hashtbl.find_opt t.posts.zk_posts key with
           | Some l -> l
           | None -> let l = ref [] in Hashtbl.replace t.posts.zk_posts key l; l
         in
         if not (List.mem_assoc trustee !posts) then begin
           posts := (trustee, encoded) :: !posts;
           let same = List.filter (fun (_, enc) -> enc = encoded) !posts in
           if List.length same >= ft + 1 then
             Hashtbl.replace t.pub.zk_finals key e.Trustee_payload.z_finals
         end
       end)
    entries

(* Tally shares: at ht distinct shares, reconstruct the opening of Esum
   per coordinate, verify, publish the counts. *)
let accept_tally_share t ~trustee ~shares =
  if t.pub.tally = None && not (List.mem_assoc trustee t.posts.tally_shares) then begin
    t.posts.tally_shares <- (trustee, shares) :: t.posts.tally_shares;
    match t.pub.encrypted_tally with
    | None -> ()
    | Some esum ->
      let m = t.cfg.Types.m_options in
      if List.length t.posts.tally_shares >= ht t then begin
        let selected = List.filteri (fun i _ -> i < ht t) t.posts.tally_shares in
        match
          Array.init m (fun j ->
              let coordinate_shares = List.map (fun (_, sh) -> sh.(j)) selected in
              Elgamal_vss.reconstruct t.gctx ~threshold:(ht t) coordinate_shares)
        with
        | openings ->
          let ok = ref true in
          Array.iteri
            (fun j opening ->
               if not (Elgamal.verify t.gctx esum.(j) opening) then ok := false)
            openings;
          if !ok then begin
            let counts =
              Array.map (fun (o : Elgamal.opening) -> Dd_bignum.Nat.to_int o.Elgamal.msg) openings
            in
            t.pub.tally <- Some counts;
            List.iter (fun f -> f t) t.on_tally
          end
        | exception Invalid_argument _ -> ()
      end
  end

let on_trustee_post t ~trustee (payload : Trustee_payload.t) =
  journal_input t (Messages.Trustee_post { trustee; payload });
  match payload with
  | Trustee_payload.Openings entries -> accept_openings t ~trustee entries
  | Trustee_payload.Zk_final entries -> accept_zk t ~trustee entries
  | Trustee_payload.Tally_share { shares; _ } -> accept_tally_share t ~trustee ~shares

let handle t (msg : Messages.bb_msg) =
  match msg with
  | Messages.Vote_set_submit { sender; set; msk_share } ->
    on_vote_set_submit t ~sender ~set ~msk_share
  | Messages.Trustee_post { trustee; payload } -> on_trustee_post t ~trustee payload

(* --- durability --------------------------------------------------------- *)

(* Cold restart: replay the journaled writes through the live handlers
   (deterministic, no sends) with no subscribers attached yet, then
   re-attach the journal so new writes append after the replayed ones. *)
let recover ?durable ~board ~cfg ~gctx ~init ~me () =
  let t = create_bare ~board ~cfg ~gctx ~init ~me () in
  (match durable with
   | None -> ()
   | Some device ->
     let recovered = Store.read device in
     List.iter
       (fun payload ->
          match Messages.decode_bb_msg payload with
          | Some msg -> handle t msg
          | None -> ()   (* framed but undecodable: skip, never crash *))
       recovered.Store.records);
  attach_journal t durable;
  t

(* Canonical encoding of the published (observable) state, for
   recovery-equivalence checks: two boards that accepted the same
   writes — in any order the dedup rules permit — encode identically.
   Reconstruction intermediates (trustee post accumulators) and the
   heavyweight group elements are represented by their outcomes. *)
let observable t =
  let w = Wire.writer () in
  Wire.put_varint w 1;
  Wire.put_list w
    (fun w (sender, set) ->
       Wire.put_varint w sender;
       Wire.put_list w
         (fun w (s, code) ->
            Wire.put_varint w s;
            Wire.put_bytes w code)
         set)
    (List.sort compare t.vote_sets);
  Wire.put_list w
    (fun w (s : Shamir_bytes.share) ->
       Wire.put_varint w s.Shamir_bytes.x;
       Wire.put_bytes w s.Shamir_bytes.data)
    (List.sort (fun a b -> compare a.Shamir_bytes.x b.Shamir_bytes.x) t.msk_shares);
  (* lint: allow secret-taint pub.msk is published on the board post-election by protocol design; fingerprinting an already-public value *)
  Wire.put_option w Wire.put_bytes t.pub.msk;
  Wire.put_option w
    (fun w set ->
       Wire.put_list w
         (fun w (s, code) ->
            Wire.put_varint w s;
            Wire.put_bytes w code)
         set)
    t.pub.final_set;
  (match t.pub.opened_codes with
   | None -> Wire.put_bool w false
   | Some table ->
     Wire.put_bool w true;
     let entries =
       Hashtbl.fold
         (fun (s, p, pos) code acc -> (s, Types.part_index p, pos, code) :: acc)
         table []
     in
     Wire.put_list w
       (fun w (s, p, pos, code) ->
          Wire.put_varint w s;
          Wire.put_varint w p;
          Wire.put_varint w pos;
          Wire.put_bytes w code)
       (List.sort compare entries));
  let sorted_keys tbl =
    Hashtbl.fold (fun (s, p) _ acc -> (s, Types.part_index p) :: acc) tbl []
    |> List.sort_uniq compare
  in
  Wire.put_list w
    (fun w (s, p) ->
       Wire.put_varint w s;
       Wire.put_varint w p)
    (sorted_keys t.pub.unused_openings);
  let zk_entries =
    Hashtbl.fold
      (fun (s, p) finals acc ->
         let enc =
           String.concat ""
             (Array.to_list (Array.map Ballot_proof.encode_final_move finals))
         in
         ((s, Types.part_index p), enc) :: acc)
      t.pub.zk_finals []
    |> List.sort compare
  in
  Wire.put_list w
    (fun w ((s, p), enc) ->
       Wire.put_varint w s;
       Wire.put_varint w p;
       Wire.put_bytes w enc)
    zk_entries;
  Wire.put_bool w (t.pub.encrypted_tally <> None);
  Wire.put_option w (fun w tally -> Wire.put_array w Wire.put_varint tally) t.pub.tally;
  Wire.contents w
