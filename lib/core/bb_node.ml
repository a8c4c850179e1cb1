(* Bulletin Board node (Section III-G): an isolated public repository.
   BB nodes never talk to each other; readers query all of them and
   trust the majority answer (see Bb_reader). Writes are restricted:
   vote sets must arrive identically from fv+1 VC nodes, and the msk,
   each unused part's openings and the tally are rebuilt from shares by
   one threshold path, [reconstruct]: shares keyed by poster (VC sender
   or trustee), a fixed-order quorum subset search checked against
   Hmsk or by [Unit_vector.verify_published], re-run on every accepted
   post and, for the tally, whenever Esum is computed.

   The node publishes, in order: its initialization data (implicitly,
   it is constructed with it), the agreed final vote-code set, the
   decrypted vote codes, the encrypted (homomorphic) tally, the
   unused-part openings and ZK final moves from the trustees, and
   finally the election tally. *)

module Shamir_bytes = Dd_vss.Shamir_bytes
module Elgamal = Dd_commit.Elgamal
module Elgamal_vss = Dd_vss.Elgamal_vss
module Unit_vector = Dd_commit.Unit_vector
module Ballot_proof = Dd_zkp.Ballot_proof
module Wal = Dd_store.Wal
module Wire = Dd_codec.Wire

(* Shares posted toward one reconstructed value, as (poster, share) in
   ascending poster order; a poster's first share wins. *)
type 'a shares = (int * 'a) list

type trustee_posts = {
  openings : (int * Types.part_id, Elgamal_vss.share array array shares) Hashtbl.t;
    (* (serial, part) -> per trustee, position -> coordinate *)
  mutable tally_shares : Elgamal_vss.share array array shares;
    (* per trustee, one vector: Esum's coordinates *)
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
  init : Ea.bb_init;
  (* the ballot table: this node's sealed "bb" segment, one chunk
     resident at a time *)
  board : Board.t;
  (* submissions *)
  mutable vote_sets : (int * (int * string) list) list;   (* VC node -> set *)
  mutable msk_shares : Shamir_bytes.share shares;   (* VC node -> share *)
  posts : trustee_posts;
  pub : published;
  (* observability callbacks for the harness *)
  mutable on_final_set : (t -> unit) list;
  mutable on_tally : (t -> unit) list;
  (* durable input journal: the BB is event-sourced, so replaying the
     accepted writes through the (deterministic) handlers rebuilds all
     published state after a cold restart *)
  mutable journal : Dd_store.Device.t option;
}

(* Journal an accepted write before its effects become observable; the
   journal is absent during replay, so recovery never re-logs. *)
let journal_input t msg =
  match t.journal with
  | Some device -> Wal.log device (Messages.encode_bb_msg msg)
  | None -> ()

let init t = t.init
let board t = t.board

let subscribe_final_set t f = t.on_final_set <- f :: t.on_final_set
let subscribe_tally t f = t.on_tally <- f :: t.on_tally

let published t = t.pub

(* --- threshold reconstruction ----------------------------------------- *)

let add_share poster share (shares : 'a shares) : 'a shares =
  List.merge (fun (a, _) (b, _) -> compare a b) shares [ (poster, share) ]

(* Deterministic subset search shared by every value the board rebuilds
   from shares: [threshold]-subsets of the posted shares are tried in
   lexicographic poster order, at most [max_attempts] of them, until
   [attempt] (reconstruct, then check) accepts one. A subset a Byzantine
   poster made malformed (duplicate or bad x, wrong shapes) is rejected
   like one that fails its check. *)
let max_attempts = 64

let reconstruct ~threshold (shares : 'a shares) ~(attempt : 'a list -> 'b option) =
  let arr = Array.of_list (List.map snd shares) in
  let n = Array.length arr and tried = ref 0 in
  let rec search start k acc =
    if k = 0 then begin
      incr tried;
      match attempt (List.rev acc) with
      | found -> found
      | exception Invalid_argument _ -> None
    end
    else
      let rec next i =
        if i > n - k || !tried >= max_attempts then None
        else
          match search (i + 1) (k - 1) (arr.(i) :: acc) with
          | None -> next (i + 1)
          | found -> found
      in
      next start
  in
  if threshold < 1 then None else search 0 threshold []

(* The [attempt] for trustee-shared openings: reconstruct every
   coordinate opening of [commitments] from the [selected] trustees'
   shares (vector -> coordinate), then check them all in one batch. *)
let open_commitments t (commitments : Unit_vector.t array) selected =
  let openings =
    Array.mapi
      (fun v (c : Unit_vector.t) ->
         Array.mapi
           (fun j _ ->
              Elgamal_vss.reconstruct ~threshold:t.cfg.Types.ht
                (List.map (fun (sh : Elgamal_vss.share array array) -> sh.(v).(j)) selected))
           c)
      commitments
  in
  let items = Array.map2 (fun c o -> (c, o)) commitments openings in
  if Unit_vector.verify_published ~label:t.cfg.Types.election_id items
  then Some openings
  else None

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

(* The tally: ht trustee shares of Esum's opening, one per coordinate,
   reconstruct an opening that must verify against Esum. *)
let try_tally t =
  match t.pub.encrypted_tally with
  | Some esum when t.pub.tally = None ->
    Option.iter
      (fun (openings : Elgamal.opening array array) ->
         t.pub.tally <- Some (Unit_vector.counts_of_opening openings.(0));
         List.iter (fun f -> f t) t.on_tally)
      (reconstruct ~threshold:t.cfg.Types.ht t.posts.tally_shares
         ~attempt:(open_commitments t [| esum |]))
  | _ -> ()

(* Homomorphic sum of the commitments selected by the final vote set,
   once the msk has opened the codes that locate them; tally shares
   already posted are tried against it at once. *)
let compute_encrypted_tally t =
  match t.pub.final_set, t.pub.opened_codes with
  | None, _ | _, None -> ()
  | Some set, Some _ ->
    let m = t.cfg.Types.m_options in
    let zero = Array.make m Elgamal.zero_commitment in
    let esum =
      List.fold_left
        (fun acc (serial, code) ->
           match locate_code t ~serial ~code with
           | None -> acc
           | Some (part, pos) ->
             (match Board.entries t.board ~serial ~part with
              | Some entries when pos < Array.length entries ->
                let entry = entries.(pos) in
                Array.mapi (fun j c -> Elgamal.add c entry.Ea.commitment.(j)) acc
              | _ -> acc))
        zero set
    in
    t.pub.encrypted_tally <- Some esum;
    try_tally t

(* The msk: Nv - fv VC shares whose reconstruction hashes to Hmsk. *)
let try_reconstruct_msk t =
  if Option.is_none t.pub.msk then begin
    let quorum = t.cfg.Types.nv - t.cfg.Types.fv in
    let found =
      reconstruct ~threshold:quorum t.msk_shares ~attempt:(fun selected ->
          let candidate = Shamir_bytes.reconstruct ~threshold:quorum selected in
          if Dd_crypto.Ct.equal
              (Dd_crypto.Sha256.digest_list [ candidate; t.init.Ea.salt_msk ])
              t.init.Ea.hmsk
          then Some candidate
          else None)
    in
    Option.iter
      (fun msk ->
         t.pub.msk <- Some msk;
         open_codes t msk;
         compute_encrypted_tally t)
      found
  end

let on_vote_set_submit t ~sender ~set ~msk_share =
  if not (List.mem_assoc sender t.vote_sets) then begin
    journal_input t (Messages.Vote_set_submit { sender; set; msk_share });
    t.vote_sets <- (sender, set) :: t.vote_sets;
    t.msk_shares <- add_share sender msk_share t.msk_shares;
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

(* Openings of unused (or fully unvoted) parts: ht trustee shares per
   (serial, part) reconstruct every position's coordinate openings,
   which must verify against the board's commitments. *)
let accept_openings t ~trustee entries =
  List.iter
    (fun (e : Trustee_payload.opening_entry) ->
       let serial = e.Trustee_payload.o_serial and part = e.Trustee_payload.o_part in
       let key = (serial, part) in
       let posted = Option.value ~default:[] (Hashtbl.find_opt t.posts.openings key) in
       if not (Hashtbl.mem t.pub.unused_openings key || List.mem_assoc trustee posted) then
         match Board.entries t.board ~serial ~part with
         | None -> ()   (* unknown serial (or unreadable chunk): ignore the post *)
         | Some bb_entries ->
           let posted = add_share trustee e.Trustee_payload.o_shares posted in
           Hashtbl.replace t.posts.openings key posted;
           let commitments =
             Array.map (fun (e : Ea.bb_part_entry) -> e.Ea.commitment) bb_entries
           in
           Option.iter
             (fun openings ->
                Hashtbl.replace t.pub.unused_openings key openings;
                Hashtbl.remove t.posts.openings key)
             (reconstruct ~threshold:t.cfg.Types.ht posted
                ~attempt:(open_commitments t commitments)))
    entries

(* ZK final moves: published once ft+1 trustees post identical bytes. *)
let accept_zk t ~trustee entries =
  let ft = t.cfg.Types.nt - t.cfg.Types.ht in
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

let accept_tally_share t ~trustee ~shares =
  if t.pub.tally = None && not (List.mem_assoc trustee t.posts.tally_shares) then begin
    t.posts.tally_shares <- add_share trustee [| shares |] t.posts.tally_shares;
    try_tally t
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

(* --- the one constructor ---------------------------------------------- *)

(* Replay the device's journaled writes through the live handlers
   (deterministic, no sends) with no subscribers attached yet and no
   journal, then attach the journal so new writes append after the
   replayed ones. An empty or absent device gives a fresh board. *)
let create ?durable ~board ~cfg ~init ~me () =
  let t =
    { me; cfg; init; board;
      vote_sets = []; msk_shares = [];
      posts = { openings = Hashtbl.create 64; tally_shares = []; zk_posts = Hashtbl.create 64 };
      pub =
        { final_set = None; msk = None; opened_codes = None;
          unused_openings = Hashtbl.create 64; zk_finals = Hashtbl.create 64;
          encrypted_tally = None; tally = None };
      on_final_set = []; on_tally = [];
      journal = None }
  in
  Option.iter
    (fun device ->
       List.iter
         (fun payload ->
            (* framed but undecodable: skip, never crash *)
            Option.iter (handle t) (Messages.decode_bb_msg payload))
         (Wal.open_log device))
    durable;
  t.journal <- durable;
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
    (fun w (sender, (s : Shamir_bytes.share)) ->
       Wire.put_varint w sender;
       Wire.put_varint w s.Shamir_bytes.x;
       Wire.put_bytes w s.Shamir_bytes.data)
    t.msk_shares;
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
