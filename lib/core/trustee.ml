(* Trustee (Section III-H). After the election each trustee reads the
   agreed vote set and opened codes from the BB majority, then:

   - posts its opening shares for every commitment in unused ballot
     parts (and both parts of unvoted ballots) — the audit material;
   - for used parts, jointly finishes the ballot-correctness ZK proofs:
     the EA shared each part's serialized prover state among the
     trustees with an (ht, Nt) sharing, so any ht trustees reconstruct
     it, compute the final move under the voter-coin challenge, and
     post it (the BB publishes a final move once ft+1 trustees post
     identical bytes);
   - homomorphically sums its opening shares over the tally set Etally
     and posts a single share of the opening of the total Esum. *)

module Shamir_bytes = Dd_vss.Shamir_bytes
module Elgamal_vss = Dd_vss.Elgamal_vss
module Ballot_proof = Dd_zkp.Ballot_proof
module Challenge = Dd_zkp.Challenge
module Group_ctx = Dd_group.Group_ctx
module Nat = Dd_bignum.Nat
module Wal = Dd_store.Wal
module Wire = Dd_codec.Wire

type exchange = {
  ex_from : int;
  (* (serial, part, state share, EA tag over it) *)
  ex_entries : (int * Types.part_id * Shamir_bytes.share * Auth.tag) list;
}

type env = {
  me : int;
  cfg : Types.config;
  gctx : Group_ctx.t;
  init : Ea.trustee_init;
  keys : Auth.keys;                       (* trustee clique; index nt is the EA *)
  send_trustee : dst:int -> exchange -> unit;
  post_bb : Trustee_payload.t -> unit;    (* broadcast a post to every BB node *)
  (* input journal device; the trustee is event-sourced over its two
     inputs (election data, peer exchanges) *)
  durable : Dd_store.Device.t option;
}

type t = {
  env : env;
  (* (serial, part) -> collected state shares *)
  state_shares : (int * Types.part_id, Shamir_bytes.share list ref) Hashtbl.t;
  mutable used_parts : (int * Types.part_id) list;  (* serial, voted part *)
  mutable master_challenge : Nat.t option;
  mutable zk_posted : (int * Types.part_id, unit) Hashtbl.t;
  mutable started : bool;
  mutable journal : Dd_store.Device.t option;
}

let create_bare env =
  { env;
    state_shares = Hashtbl.create 64;
    used_parts = [];
    master_challenge = None;
    zk_posted = Hashtbl.create 64;
    started = false;
    journal = None }

let create env =
  let t = create_bare env in
  t.journal <- env.durable;
  t

(* --- durable input journal --------------------------------------------- *)

type journal_input =
  | J_data of (int * (Types.part_id * int)) list
  | J_exchange of exchange

let encode_input inp =
  let w = Wire.writer () in
  (match inp with
   | J_data voted ->
     Wire.put_varint w 0;
     Wire.put_list w
       (fun w (serial, (part, pos)) ->
          Wire.put_varint w serial;
          Messages.put_part w part;
          Wire.put_varint w pos)
       voted
   | J_exchange ex ->
     Wire.put_varint w 1;
     Wire.put_varint w ex.ex_from;
     Wire.put_list w
       (fun w (serial, part, share, tag) ->
          Wire.put_varint w serial;
          Messages.put_part w part;
          Messages.put_share w share;
          Messages.put_tag w tag)
       ex.ex_entries);
  Wire.contents w

let decode_input payload =
  Wire.decode payload (fun r ->
      match Wire.get_varint r with
      | 0 ->
        J_data
          (Wire.get_list r (fun r ->
               let serial = Wire.get_varint r in
               let part = Messages.get_part r in
               let pos = Wire.get_varint r in
               (serial, (part, pos))))
      | 1 ->
        let ex_from = Wire.get_varint r in
        let ex_entries =
          Wire.get_list r (fun r ->
              let serial = Wire.get_varint r in
              let part = Messages.get_part r in
              let share = Messages.get_share r in
              let tag = Messages.get_tag r in
              (serial, part, share, tag))
        in
        J_exchange { ex_from; ex_entries }
      | _ -> raise (Wire.Malformed "trustee journal input"))

let journal_input t inp =
  match t.journal with
  | Some device -> Wal.log device (encode_input inp)
  | None -> ()

(* Parse the per-part state blob: length-prefixed encoded states. *)
let parse_states blob =
  let rec go off acc =
    if off >= String.length blob then Some (List.rev acc)
    else if off + 8 > String.length blob then None
    else begin
      match int_of_string_opt (String.sub blob off 8) with
      | None -> None
      | Some len ->
        if off + 8 + len > String.length blob then None
        else begin
          match Ballot_proof.decode_state (String.sub blob (off + 8) len) with
          | None -> None
          | Some st -> go (off + 8 + len) (st :: acc)
        end
    end
  in
  match go 0 [] with
  | Some l -> Some (Array.of_list l)
  | None -> None

let part_data t ~serial ~part =
  t.env.init.Ea.t_ballots.(serial).(Types.part_index part)

(* Finish the ZK proof of one used part once ht state shares are in. *)
let try_finalize_zk t ~serial ~part =
  let key = (serial, part) in
  if not (Hashtbl.mem t.zk_posted key) then begin
    match Hashtbl.find_opt t.state_shares key, t.master_challenge with
    | Some shares, Some master when List.length !shares >= t.env.cfg.Types.ht ->
      let selected = List.filteri (fun i _ -> i < t.env.cfg.Types.ht) !shares in
      let blob = Shamir_bytes.reconstruct ~threshold:t.env.cfg.Types.ht selected in
      (match parse_states blob with
       | None -> ()  (* corrupt share slipped in; wait for more *)
       | Some states ->
         let challenge = Challenge.for_proof ~master_challenge:master ~serial
             ~part:(match part with Types.A -> `A | Types.B -> `B) in
         let finals = Array.map (fun st -> Ballot_proof.finalize st ~challenge) states in
         Hashtbl.replace t.zk_posted key ();
         t.env.post_bb
           (Trustee_payload.Zk_final
              [ { Trustee_payload.z_serial = serial; Trustee_payload.z_part = part;
                  Trustee_payload.z_finals = finals } ]))
    | _ -> ()
  end

let add_state_share t ~serial ~part share =
  let key = (serial, part) in
  let shares =
    match Hashtbl.find_opt t.state_shares key with
    | Some l -> l
    | None -> let l = ref [] in Hashtbl.replace t.state_shares key l; l
  in
  if not (List.exists (fun s -> s.Shamir_bytes.x = share.Shamir_bytes.x) !shares) then begin
    shares := share :: !shares;
    try_finalize_zk t ~serial ~part
  end

let on_exchange t (ex : exchange) =
  journal_input t (J_exchange ex);
  List.iter
    (fun (serial, part, share, tag) ->
       let body = Ea.zk_state_body ~election_id:t.env.cfg.Types.election_id ~serial ~part
           ~trustee:ex.ex_from share
       in
       (* shares are EA-authenticated, so a Byzantine trustee cannot
          inject a corrupt share *)
       if Auth.verify t.env.keys ~signer:t.env.cfg.Types.nt body tag then
         add_state_share t ~serial ~part share)
    ex.ex_entries

(* Entry point: the harness calls this with the majority-read BB data.
   [voted] maps each serial in the final set to its located (part, pos);
   serials absent from the map are unvoted. *)
let on_election_data t ~(voted : (int * (Types.part_id * int)) list) =
  if not t.started then begin
    journal_input t (J_data voted);
    t.started <- true;
    let cfg = t.env.cfg in
    let n = cfg.Types.n_voters and m = cfg.Types.m_options in
    (* voter coins, ordered by serial: A = false, B = true *)
    let coins =
      List.sort compare voted
      |> List.map (fun (_, (part, _)) -> part = Types.B)
    in
    t.master_challenge <-
      Some (Challenge.master ~election_id:cfg.Types.election_id ~coins);
    t.used_parts <- List.map (fun (serial, (part, _)) -> (serial, part)) voted;
    (* 1. openings of unused parts / both parts of unvoted ballots *)
    let opening_entries = ref [] in
    for serial = 0 to n - 1 do
      let parts_to_open =
        match List.assoc_opt serial voted with
        | Some (part, _) -> [ Types.other_part part ]
        | None -> [ Types.A; Types.B ]
      in
      List.iter
        (fun part ->
           let data = part_data t ~serial ~part in
           opening_entries :=
             { Trustee_payload.o_serial = serial; Trustee_payload.o_part = part;
               Trustee_payload.o_shares = data.Ea.t_shares }
             :: !opening_entries)
        parts_to_open
    done;
    t.env.post_bb (Trustee_payload.Openings !opening_entries);
    (* 2. exchange ZK prover-state shares for the used parts *)
    let ex_entries =
      List.map
        (fun (serial, part) ->
           let data = part_data t ~serial ~part in
           (serial, part, data.Ea.t_zk_state_share, data.Ea.t_zk_state_tag))
        t.used_parts
    in
    (* include our own shares *)
    List.iter
      (fun (serial, part, share, _) -> add_state_share t ~serial ~part share)
      ex_entries;
    for dst = 0 to cfg.Types.nt - 1 do
      if dst <> t.env.me then
        t.env.send_trustee ~dst { ex_from = t.env.me; ex_entries }
    done;
    (* 3. tally share: sum our opening shares over Etally *)
    let x = t.env.me + 1 in
    let tally_shares =
      Array.init m (fun j ->
          let per_ballot =
            List.map
              (fun (serial, (part, pos)) ->
                 let data = part_data t ~serial ~part in
                 data.Ea.t_shares.(pos).(j))
              voted
          in
          Elgamal_vss.sum_shares ~x per_ballot)
    in
    t.env.post_bb
      (Trustee_payload.Tally_share
         { shares = tally_shares; ballots_counted = List.length voted })
  end

(* Cold restart: replay the journaled inputs through the live handlers.
   Replay re-posts to the BBs and re-sends exchanges — deliberately so,
   since the crash may have swallowed the originals; every receiver
   (BB post dedup, peer share dedup by x) coalesces duplicates. *)
let recover env =
  let t = create_bare env in
  (match env.durable with
   | None -> ()
   | Some device ->
     List.iter
       (fun payload ->
          match decode_input payload with
          | Some (J_data voted) -> on_election_data t ~voted
          | Some (J_exchange ex) -> on_exchange t ex
          | None -> ()   (* framed but undecodable: skip, never crash *))
       (Wal.open_log device));
  t.journal <- env.durable;
  t

(* Canonical encoding of the trustee's state, for recovery-equivalence
   checks (sorted, deterministic). *)
let observable t =
  let w = Wire.writer () in
  Wire.put_varint w 1;
  Wire.put_bool w t.started;
  Wire.put_option w (fun w n -> Wire.put_bytes w (Nat.to_bytes_be n)) t.master_challenge;
  Wire.put_list w
    (fun w (s, p) ->
       Wire.put_varint w s;
       Wire.put_varint w (Types.part_index p))
    (List.sort compare t.used_parts);
  let shares =
    Hashtbl.fold
      (fun (s, p) l acc ->
         let xs = List.map (fun sh -> sh.Shamir_bytes.x) !l |> List.sort compare in
         ((s, Types.part_index p), xs) :: acc)
      t.state_shares []
    |> List.sort compare
  in
  Wire.put_list w
    (fun w ((s, p), xs) ->
       Wire.put_varint w s;
       Wire.put_varint w p;
       Wire.put_list w Wire.put_varint xs)
    shares;
  let posted =
    Hashtbl.fold (fun (s, p) () acc -> (s, Types.part_index p) :: acc) t.zk_posted []
    |> List.sort compare
  in
  Wire.put_list w
    (fun w (s, p) ->
       Wire.put_varint w s;
       Wire.put_varint w p)
    posted;
  Wire.contents w
