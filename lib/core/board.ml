(* The BB ballot table (see board.mli): a sealed segment behind a
   bounded chunk cache, committed to by the manifest's Merkle root. *)

module Device = Dd_store.Device
module Segment = Dd_segment.Segment

type t = {
  manifest : Segment.manifest;
  cache : Segment.Cache.t;
}

let create device manifest =
  { manifest; cache = Segment.Cache.create device manifest }

let n_ballots t = t.manifest.Segment.total
let n_chunks t = Segment.n_chunks t.manifest
let root t = t.manifest.Segment.root

let ballot t serial =
  match Segment.Cache.record t.cache serial with
  | None -> None
  | Some payload -> Election_store.decode_bb_ballot payload

let entries t ~serial ~part =
  match ballot t serial with
  | None -> None
  | Some b ->
    let p = Types.part_index part in
    if p < 0 || p >= Array.length b.Ea.bb_parts then None
    else Some b.Ea.bb_parts.(p)

let iter_decoded decode t f =
  let ok = ref true in
  (try
     for c = 0 to n_chunks t - 1 do
       match Segment.Cache.chunk t.cache c with
       | None -> ok := false; raise Exit
       | Some payloads ->
         Array.iter
           (fun payload ->
              match decode payload with
              | Some b -> f b
              | None -> ok := false; raise Exit)
           payloads
     done
   with Exit -> ());
  !ok

let iter t f = iter_decoded Election_store.decode_bb_ballot t f
let iter_codes t f = iter_decoded Election_store.decode_bb_codes t (fun (s, c) -> f s c)

let slice t c =
  if c < 0 || c >= n_chunks t then None
  else
    match Segment.Cache.chunk t.cache c with
    | None -> None
    | Some payloads ->
      let out = Array.map Election_store.decode_bb_ballot payloads in
      if Array.exists Option.is_none out then None
      else
        Some
          (t.manifest.Segment.chunk_first.(c),
           (* lint: allow exception-hygiene — all-Some guarded two lines up *)
           Array.map Option.get out)

let slice_proof t c =
  if c < 0 || c >= n_chunks t then None
  else Some (t.manifest.Segment.chunk_root.(c), Segment.slice_proof t.manifest c)

let cache_stats t = Some (Segment.Cache.stats t.cache)
