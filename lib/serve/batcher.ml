module Auth = Ddemos.Auth
module Messages = Ddemos.Messages
module Wire = Dd_codec.Wire

type stats = {
  mutable batch_calls : int;
  mutable batched : int;
  mutable serial : int;
  mutable cache_hits : int;
}

type t = {
  keys : Auth.keys;
  gctx : Dd_group.Group_ctx.t;
  election_id : string;
  ea_signer : int;                   (* the EA's clique index: cfg.nv *)
  share_tags : bool;
  min_batch : int;
  cache : (string, bool) Hashtbl.t;
  st : stats;
}

let create ?(min_batch = 4) ~keys ~gctx ~election_id
    ~ea_signer ~share_tags () =
  { keys; gctx; election_id; ea_signer; share_tags;
    min_batch = max 2 min_batch;
    cache = Hashtbl.create 1024;
    st = { batch_calls = 0; batched = 0; serial = 0; cache_hits = 0 } }

let stats t = t.st

(* Verdicts are keyed by the exact (signer, body, tag) triple —
   anything else would let a forged tag alias a cached good one. *)
let obligation_key t ~signer body tag =
  let w = Wire.writer () in
  Wire.put_varint w signer;
  Wire.put_bytes w body;
  Messages.put_tag t.gctx w tag;
  Wire.contents w

(* The cache is bounded by epoch flush: past [cache_cap] verdicts it
   restarts empty. Misses only cost a serial re-verify, never
   correctness. *)
let cache_cap = 65536

let remember t key v =
  if Hashtbl.length t.cache >= cache_cap then Hashtbl.reset t.cache;
  Hashtbl.replace t.cache key v

let verify t ~signer body tag =
  let key = obligation_key t ~signer body tag in
  match Hashtbl.find_opt t.cache key with
  | Some v ->
    t.st.cache_hits <- t.st.cache_hits + 1;
    v
  | None ->
    t.st.serial <- t.st.serial + 1;
    let v = Auth.verify t.keys ~signer body tag in
    remember t key v;
    v

(* Everything the node will (or may) check about [msg], as (signer,
   body, tag) triples. UCERT bodies come from the certificate's own
   (serial, code) binding — the same bytes [Messages.verify_ucert]
   checks. *)
let obligations_of t msg =
  let ucert_obls (u : Messages.ucert) =
    let body =
      Messages.endorsement_body ~election_id:t.election_id
        ~serial:u.Messages.u_serial ~code:u.Messages.u_code
    in
    List.map (fun (signer, tag) -> (signer, body, tag)) u.Messages.endorsements
  in
  match msg with
  | Messages.Endorsement { serial; vote_code; signer; tag } ->
    let body =
      Messages.endorsement_body ~election_id:t.election_id ~serial ~code:vote_code
    in
    [ (signer, body, tag) ]
  | Messages.Vote_p { serial; vote_code = _; sender; part; pos; share; share_tag; ucert } ->
    let shares =
      match share_tag with
      | Some tag when t.share_tags ->
        let body =
          Messages.share_body ~election_id:t.election_id ~serial ~part ~pos
            ~node:sender ~share
        in
        [ (t.ea_signer, body, tag) ]
      | _ -> []
    in
    shares @ ucert_obls ucert
  | Messages.Announce_batch { entries; _ } | Messages.Recover_response { entries; _ } ->
    List.concat_map (fun (_, _, u) -> ucert_obls u) entries
  | Messages.Vote _ | Messages.Endorse _ | Messages.Consensus _
  | Messages.Recover_request _ -> []

let preverify t msgs =
  (* collect obligations not already settled, deduplicated in batch *)
  let seen = Hashtbl.create 64 in
  let fresh = ref [] and n_fresh = ref 0 in
  List.iter
    (fun msg ->
       List.iter
         (fun (signer, body, tag) ->
            let key = obligation_key t ~signer body tag in
            if not (Hashtbl.mem seen key) && not (Hashtbl.mem t.cache key)
            then begin
              Hashtbl.replace seen key ();
              fresh := (key, signer, body, tag) :: !fresh;
              incr n_fresh
            end)
         (obligations_of t msg))
    msgs;
  if !n_fresh >= t.min_batch then begin
    let obls = List.rev !fresh in
    t.st.batch_calls <- t.st.batch_calls + 1;
    let triples = List.map (fun (_, signer, body, tag) -> (signer, body, tag)) obls in
    if Auth.verify_batch t.keys triples then begin
      t.st.batched <- t.st.batched + !n_fresh;
      List.iter (fun (key, _, _, _) -> remember t key true) obls
    end
    else
      (* a bad tag is hiding in the batch: settle each obligation
         individually so only the invalid ones are rejected *)
      List.iter
        (fun (key, signer, body, tag) ->
           t.st.serial <- t.st.serial + 1;
           remember t key (Auth.verify t.keys ~signer body tag))
        obls
  end
(* below [min_batch] the lazy path (the [verify] hook) wins: the node
   may not even look at some obligations, so eager serial checking
   would do work the serial backend skips *)
