(* A VC node's view of the election data: salted vote-code hashes and
   receipt shares per ballot line, plus this node's msk share.

   Two backings:
   - [segmented]: real EA initialization data, a sealed ["vc-<i>"]
     segment served through a bounded chunk cache (every full-crypto
     run, whether the segment lives on disk or in memory);
   - [virtual_prf]: data derived on demand from the setup seed, with a
     bounded cache — the stand-in for the prototype's PostgreSQL table
     that lets the Fig. 5a experiments cover electorates of hundreds of
     millions of ballots. The simulator charges the disk-cost model
     separately; this module only provides the values. *)

module Shamir_bytes = Dd_vss.Shamir_bytes

type t =
  | Segmented of {
      sg_cfg : Types.config;
      sg_msk_share : Shamir_bytes.share;
      sg_cache : Dd_segment.Segment.Cache.t;
    }
  | Virtual of {
      seed : string;
      cfg : Types.config;
      node : int;
      msk_share : Shamir_bytes.share;
      cache : (int, Types.vc_line array array) Hashtbl.t;
      mutable cache_cap : int;
    }

let segmented ~cfg ~msk_share device manifest =
  Segmented
    { sg_cfg = cfg; sg_msk_share = msk_share;
      sg_cache = Dd_segment.Segment.Cache.create device manifest }

let virtual_prf ~seed ~cfg ~node =
  let msk_shares =
    Ballot_gen.msk_shares ~seed ~threshold:(cfg.Types.nv - cfg.Types.fv) ~shares:cfg.Types.nv
  in
  Virtual
    { seed; cfg; node; msk_share = msk_shares.(node);
      cache = Hashtbl.create 4096; cache_cap = 100_000 }

let lines t ~serial ~part =
  match t with
  | Segmented s ->
    (match Dd_segment.Segment.Cache.record s.sg_cache serial with
     | None -> [||]
     | Some payload ->
       (match Election_store.decode_vc_record payload with
        | Some parts when Types.part_index part < Array.length parts ->
          parts.(Types.part_index part)
        | _ -> [||]))
  | Virtual v ->
    if serial < 0 || serial >= v.cfg.Types.n_voters then [||]
    else begin
      let both =
        match Hashtbl.find_opt v.cache serial with
        | Some b -> b
        | None ->
          let derive p = Ballot_gen.vc_lines ~seed:v.seed ~cfg:v.cfg ~serial ~part:p ~node:v.node in
          let b = [| derive Types.A; derive Types.B |] in
          if Hashtbl.length v.cache >= v.cache_cap then Hashtbl.reset v.cache;
          Hashtbl.replace v.cache serial b;
          b
      in
      both.(Types.part_index part)
    end

let msk_share = function
  | Segmented s -> s.sg_msk_share
  | Virtual v -> v.msk_share

let share_tags = function
  | Segmented _ -> true
  | Virtual _ -> false

(* Locate a vote code in a ballot: scan both parts' salted hashes, as
   Algorithm 1's VerifyVoteCode does. Returns (part, position, line). *)
let verify_vote_code t ~serial ~vote_code =
  let check part =
    let ls = lines t ~serial ~part in
    let found = ref None in
    Array.iteri
      (fun pos line ->
         if !found = None
         && Dd_crypto.Ct.equal line.Types.code_hash
              (Ballot_gen.code_hash ~code:vote_code ~salt:line.Types.salt)
         then found := Some (part, pos, line))
      ls;
    !found
  in
  match check Types.A with
  | Some r -> Some r
  | None -> check Types.B
