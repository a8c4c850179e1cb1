(* The auditor (Section III-I): any party that reads the BB majority
   and verifies the election. Implements checks (a)-(e) on public data
   and (f)-(g) on audit information received from delegating voters.
   Every check is pure verification over published values — auditors
   hold no secrets, so auditing scales to arbitrarily many parties, and
   each honest voter who audits (or delegates) multiplies the chance of
   catching a cheating EA by 2 (Theorem 3: error 2^-theta + 2^-d). *)

module Elgamal = Dd_commit.Elgamal
module Unit_vector = Dd_commit.Unit_vector
module Ballot_proof = Dd_zkp.Ballot_proof
module Challenge = Dd_zkp.Challenge
module Batch = Dd_group.Batch
module Nat = Dd_bignum.Nat
module Pool = Dd_parallel.Pool

type check = {
  name : string;
  ok : bool;
  detail : string;
}

let check name ok detail = { name; ok; detail }

(* The coherent election view an auditor assembles from the BB majority
   (Bb_reader) plus the replicated initialization data. *)
type view = {
  cfg : Types.config;
  board : Board.t;
  final_set : (int * string) list;
  voted : (int * (Types.part_id * int)) list;   (* serial -> used part, position *)
  opened_codes : (int * Types.part_id * int, string) Hashtbl.t;
  unused_openings : (int * Types.part_id, Elgamal.opening array array) Hashtbl.t;
  zk_finals : (int * Types.part_id, Ballot_proof.final_move array) Hashtbl.t;
  tally : Types.tally option;
}

let assemble ?gctx:_ ~cfg (nodes : Bb_node.t list) =
  match Bb_reader.final_set ~cfg nodes, Bb_reader.voted_positions ~cfg nodes with
  | Bb_reader.Agreed final_set, Bb_reader.Agreed voted ->
    (* initialization data is replicated; cross-check by majority on
       the boards' Merkle roots before adopting one copy. The root
       covers every encoded ballot record (not just a commitment
       sample), is O(1) to read off a node, and is the same
       value slice auditors later verify chunks against. *)
    let fingerprint (bb : Bb_node.t) = Board.root (Bb_node.board bb) in
    (match
       Bb_reader.read ~quorum:(cfg.Types.fb + 1) ~equal:String.equal
         ~extract:(fun bb -> Some (fingerprint bb)) nodes
     with
     | Bb_reader.No_majority -> None
     | Bb_reader.Agreed fp ->
       (* the tally, like the final set, is a majority-read field *)
       let majority_tally =
         match Bb_reader.tally ~cfg nodes with
         | Bb_reader.Agreed t -> Some t
         | Bb_reader.No_majority -> None
       in
       (* adopt the bulk data from a node that not only matches the
          replicated-init majority but also published the agreed final
          set with its codes opened — a Byzantine node serving
          tampered or incomplete state can share the (untampered) init
          fingerprint, so fingerprint alone must not select it. When a
          majority tally exists the node must also carry it: a board
          that crashed and replayed a pre-outage journal can serve the
          agreed final set yet miss every trustee post, and adopting
          its empty proof tables would fail the audit spuriously *)
       let consistent bb =
         String.equal (fingerprint bb) fp
         && (match (Bb_node.published bb).Bb_node.final_set with
             | Some s ->
               List.length s = List.length final_set
               && List.for_all2
                    (fun (s1, c1) (s2, c2) -> s1 = s2 && Dd_crypto.Ct.equal c1 c2)
                    s final_set
             | None -> false)
         && (Bb_node.published bb).Bb_node.opened_codes <> None
         && (match majority_tally with
             | None -> true
             | Some t -> (Bb_node.published bb).Bb_node.tally = Some t)
       in
       match List.find_opt consistent nodes with
       | None -> None
       | Some majority_node ->
         let pub = Bb_node.published majority_node in
         (match pub.Bb_node.opened_codes with
          | None -> None
          | Some opened_codes ->
            Some
              { cfg;
                board = Bb_node.board majority_node;
                final_set; voted;
                opened_codes;
                unused_openings = pub.Bb_node.unused_openings;
                zk_finals = pub.Bb_node.zk_finals;
                tally = majority_tally }))
  | _ -> None

(* (a) within each opened ballot, all vote codes are distinct.
   Streams the board (one chunk resident at a time); a board chunk
   that fails verification fails the check. *)
let check_distinct_codes v =
  let ok = ref true in
  let streamed =
    Board.iter v.board (fun (bal : Ea.bb_ballot) ->
        let serial = bal.Ea.bb_serial in
        let codes = ref [] in
        List.iter
          (fun part ->
             Array.iteri
               (fun pos _ ->
                  match Hashtbl.find_opt v.opened_codes (serial, part, pos) with
                  | Some c -> codes := c :: !codes
                  | None -> ())
               bal.Ea.bb_parts.(Types.part_index part))
          [ Types.A; Types.B ];
        let sorted = List.sort compare !codes in
        let rec dup = function
          | a :: (b :: _ as rest) -> a = b || dup rest
          | _ -> false
        in
        if dup sorted then ok := false)
  in
  check "a:distinct-vote-codes" (!ok && streamed)
    "every opened ballot has pairwise distinct vote codes"

(* (b) at most one submitted code per ballot *)
let check_single_submission v =
  let serials = List.map fst v.final_set in
  let sorted = List.sort compare serials in
  let rec dup = function
    | a :: (b :: _ as rest) -> a = b || dup rest
    | _ -> false
  in
  check "b:single-submission" (not (dup sorted)) "one submitted vote code per ballot"

(* (c) no ballot uses both parts *)
let check_single_part v =
  let ok =
    List.for_all
      (fun (serial, (part, _)) ->
         not (List.exists (fun (s, (p, _)) -> s = serial && p <> part) v.voted))
      v.voted
  in
  check "c:single-part-used" ok "no ballot has both parts voted"

(* First-offender bookkeeping for the expensive checks: keep the
   failing (serial, part) with the smallest key so the report names a
   deterministic culprit regardless of discovery order. *)
type offender = { o_serial : int; o_part : Types.part_id; o_why : string }

let note_offender bad serial part why =
  let key = (serial, Types.part_index part) in
  match !bad with
  | Some o when (o.o_serial, Types.part_index o.o_part) <= key -> ()
  | _ -> bad := Some { o_serial = serial; o_part = part; o_why = why }

let offender_detail o =
  Printf.sprintf "ballot %d part %s: %s" o.o_serial (Types.part_label o.o_part) o.o_why

(* First failing index of [check] over [0, n), or [None]. With a
   multi-domain [?pool] and a large enough space, the range splits into
   contiguous shards, each shard runs its own bisection ([check]
   offsets stay global, so shard batches derive the same
   Fiat-Shamir weights a serial bisection of that range would), and
   the minimum over shard results is returned — which equals the head
   of the serial bisection's sorted failure list, so the named
   offender is identical on both paths (pinned by test_election). *)
let serial_find_first ~n ~check =
  match Batch.find_failures ~n ~check with [] -> None | i :: _ -> Some i

let par_find_first pool ~n ~check =
  match pool with
  | None -> serial_find_first ~n ~check
  | Some pool when Pool.size pool <= 1 || n < 64 -> serial_find_first ~n ~check
  | Some pool ->
    let nshards = min (Pool.size pool) ((n + 31) / 32) in
    let firsts =
      Pool.parallel_map pool ~chunk:1
        (fun shard ->
           let slo = shard * n / nshards and shi = (shard + 1) * n / nshards in
           match
             Batch.find_failures ~n:(shi - slo)
               ~check:(fun ~lo ~len -> check ~lo:(slo + lo) ~len)
           with
           | [] -> None
           | i :: _ -> Some (slo + i))
        (Array.init nshards (fun i -> i))
    in
    Array.fold_left
      (fun acc o ->
         match acc, o with
         | Some a, Some b -> Some (min a b)
         | (Some _ as a), None -> a
         | None, o -> o)
      None firsts

(* (d) openings of unused parts are valid unit vectors.

   With [batch] (the default), all opening equations fold into one MSM
   through [Unit_vector.verify_published], the check the bulletin
   board ran on the same openings before publishing them: its
   Fiat-Shamir weights come from the verified data itself (the
   auditor holds no entropy source), so audits replay. A failing
   batch (or sub-range of it) is bisected to name
   the first offending (serial, part). The unit-ness of the committed
   vectors is a cheap scalar check and stays serial on both paths.
   [?pool] shards the batch across domains (see [par_find_first]). *)
let check_openings ?(batch = true) ?pool v =
  let items =
    Hashtbl.fold (fun key op acc -> (key, op) :: acc) v.unused_openings []
    |> List.sort (fun ((s1, p1), _) ((s2, p2), _) ->
        compare (s1, Types.part_index p1) (s2, Types.part_index p2))
  in
  let bad = ref None and checked = ref 0 in
  let crypto = ref [] in
  List.iter
    (fun ((serial, part), (openings : Elgamal.opening array array)) ->
       match Board.entries v.board ~serial ~part with
       | None -> note_offender bad serial part "no such ballot on the board"
       | Some entries ->
       if Array.length openings <> Array.length entries then
         note_offender bad serial part "opening count does not match the ballot"
       else
         Array.iteri
           (fun pos per_coord ->
              incr checked;
              (* the committed vector must be a unit vector *)
              let ones =
                Array.fold_left
                  (fun acc (o : Elgamal.opening) ->
                     if Nat.equal o.Elgamal.msg Nat.one then acc + 1
                     else if Nat.is_zero o.Elgamal.msg then acc
                     else acc + 1000)
                  0 per_coord
              in
              if ones <> 1 then
                note_offender bad serial part
                  (Printf.sprintf "position %d does not open to a unit vector" pos);
              crypto := (serial, part, pos, (entries.(pos).Ea.commitment, per_coord)) :: !crypto)
           openings)
    items;
  let crypto = Array.of_list (List.rev !crypto) in
  if batch then begin
    let items = Array.map (fun (_, _, _, cv) -> cv) crypto in
    let check_range ~lo ~len =
      Unit_vector.verify_published ~label:v.cfg.Types.election_id (Array.sub items lo len)
    in
    match par_find_first pool ~n:(Array.length crypto) ~check:check_range with
    | None -> ()
    | Some idx ->
      let serial, part, pos, _ = crypto.(idx) in
      note_offender bad serial part (Printf.sprintf "position %d opening invalid" pos)
  end
  else
    Array.iter
      (fun (serial, part, pos, (c, o)) ->
         if not (Unit_vector.verify c o) then
           note_offender bad serial part (Printf.sprintf "position %d opening invalid" pos))
      crypto;
  match !bad with
  | None ->
    check "d:openings-valid" true
      (Printf.sprintf "%d unused-part positions open to valid unit vectors" !checked)
  | Some o -> check "d:openings-valid" false (offender_detail o)

(* voter coins and the master challenge, recomputed from public data *)
let master_challenge v =
  let coins =
    List.sort compare v.voted |> List.map (fun (_, (part, _)) -> part = Types.B)
  in
  Challenge.master ~election_id:v.cfg.Types.election_id ~coins

(* (e) ZK proofs of used parts verify under the recomputed challenge.

   Same batching strategy as (d): every ballot proof of every used
   part folds into one MSM under Fiat-Shamir weights; bisection names
   the first offending (serial, part) when the batch fails. [?pool]
   shards the batch across domains (see [par_find_first]). *)
let check_zk ?(batch = true) ?pool v =
  let master = master_challenge v in
  let bad = ref None and checked = ref 0 in
  let crypto = ref [] in
  List.iter
    (fun (serial, (part, _)) ->
       match Hashtbl.find_opt v.zk_finals (serial, part) with
       | None -> note_offender bad serial part "no ZK final move published"
       | Some finals ->
         match Board.entries v.board ~serial ~part with
         | None -> note_offender bad serial part "no such ballot on the board"
         | Some entries ->
         if Array.length finals <> Array.length entries then
           note_offender bad serial part "final-move count does not match the ballot"
         else begin
           let challenge = Challenge.for_proof ~master_challenge:master ~serial
             ~part:(match part with Types.A -> `A | Types.B -> `B) in
           Array.iteri
             (fun pos (e : Ea.bb_part_entry) ->
                incr checked;
                crypto := (serial, part, pos,
                           { Ballot_proof.commitments = e.Ea.commitment;
                             fm = e.Ea.zk_first; challenge; fin = finals.(pos) }) :: !crypto)
             entries
         end)
    (List.sort compare v.voted);
  let crypto = Array.of_list (List.rev !crypto) in
  let verify_one (inst : Ballot_proof.instance) =
    Ballot_proof.verify ~commitments:inst.Ballot_proof.commitments
      inst.Ballot_proof.fm ~challenge:inst.Ballot_proof.challenge inst.Ballot_proof.fin
  in
  if batch then begin
    let seed_parts =
      v.cfg.Types.election_id
      :: List.concat_map
        (fun (serial, part, pos, (inst : Ballot_proof.instance)) ->
           [ Printf.sprintf "%d:%s:%d" serial (Types.part_label part) pos;
             Ballot_proof.encode_first_move inst.Ballot_proof.fm;
             Ballot_proof.encode_final_move inst.Ballot_proof.fin;
             Nat.to_bytes_be ~len:32 inst.Ballot_proof.challenge ])
        (Array.to_list crypto)
    in
    let check_range ~lo ~len =
      if len = 1 then (let _, _, _, inst = crypto.(lo) in verify_one inst)
      else
        let rng =
          Batch.derive_rng ~label:(Printf.sprintf "audit-zk:%d:%d" lo len) seed_parts
        in
        Ballot_proof.verify_batch rng
          (Array.map (fun (_, _, _, inst) -> inst) (Array.sub crypto lo len))
    in
    match par_find_first pool ~n:(Array.length crypto) ~check:check_range with
    | None -> ()
    | Some idx ->
      let serial, part, pos, _ = crypto.(idx) in
      note_offender bad serial part (Printf.sprintf "position %d proof invalid" pos)
  end
  else
    Array.iter
      (fun (serial, part, pos, inst) ->
         if not (verify_one inst) then
           note_offender bad serial part (Printf.sprintf "position %d proof invalid" pos))
      crypto;
  match !bad with
  | None -> check "e:zk-proofs" true (Printf.sprintf "%d used-part proofs verified" !checked)
  | Some o -> check "e:zk-proofs" false (offender_detail o)

(* Slice auditing: many independent auditors, one board root. Each
   auditor takes a disjoint chunk range and verifies its chunks against
   the shared root using only those chunks' bytes — nothing outside
   the chunk's byte span is read, so auditing parallelizes across
   parties with per-party work O(n / n_chunks) (pinned by test: every
   other chunk of the device can be corrupt). *)
let audit_slice ?root v ~chunk =
  let root = match root with Some r -> r | None -> Board.root v.board in
  match Board.slice_proof v.board chunk with
  | None ->
    [ check "s:slice-proof" false (Printf.sprintf "chunk %d out of range" chunk) ]
  | Some (chunk_root, path) ->
    let in_root =
      check "s:slice-in-root"
        (Dd_segment.Segment.verify_slice ~root ~chunk_root path)
        (Printf.sprintf "chunk %d's root commits into the board root" chunk)
    in
    (match Board.slice v.board chunk with
     | None ->
       [ in_root;
         check "s:slice-readable" false
           (Printf.sprintf "chunk %d failed CRC/Merkle/decode verification" chunk) ]
     | Some (first, ballots) ->
       let readable =
         check "s:slice-readable" true
           (Printf.sprintf "chunk %d: %d ballots verified" chunk (Array.length ballots))
       in
       (* check (a) restricted to this slice's serials *)
       let ok = ref true in
       Array.iteri
         (fun i (bal : Ea.bb_ballot) ->
            if bal.Ea.bb_serial <> first + i then ok := false;
            let codes = ref [] in
            List.iter
              (fun part ->
                 Array.iteri
                   (fun pos _ ->
                      match Hashtbl.find_opt v.opened_codes (bal.Ea.bb_serial, part, pos) with
                      | Some c -> codes := c :: !codes
                      | None -> ())
                   bal.Ea.bb_parts.(Types.part_index part))
              [ Types.A; Types.B ];
            let sorted = List.sort compare !codes in
            let rec dup = function
              | a :: (b :: _ as rest) -> a = b || dup rest
              | _ -> false
            in
            if dup sorted then ok := false)
         ballots;
       [ in_root; readable;
         check "a:distinct-vote-codes" !ok
           "every opened ballot in the slice has pairwise distinct vote codes" ])

(* tally consistency: Esum from the final set opens to the published
   counts, and the counts sum to the number of voted ballots *)
let check_tally v =
  match v.tally with
  | None -> check "tally" false "no tally published"
  | Some counts ->
    let total = Array.fold_left ( + ) 0 counts in
    check "tally-sums" (total = List.length v.voted)
      (Printf.sprintf "tally counts sum to %d voted ballots" total)

(* (f) a delegating voter's cast code is in the final set *)
let check_voter_code v (info : Voter.audit_info) =
  let ok =
    List.exists
      (fun (serial, code) ->
         serial = info.Voter.a_serial && Dd_crypto.Ct.equal code info.Voter.a_cast_code)
      v.final_set
  in
  check "f:cast-code-included" ok
    (Printf.sprintf "ballot %d's cast code appears in the final set" info.Voter.a_serial)

(* (g) the opened unused part matches the voter's printed copy:
   for every option, the BB position whose opening selects that option
   must carry exactly the voter's printed vote code *)
let check_voter_unused v (info : Voter.audit_info) =
  let serial = info.Voter.a_serial and part = info.Voter.a_unused_part in
  match Hashtbl.find_opt v.unused_openings (serial, part) with
  | None -> check "g:unused-part-matches" false "unused part not opened on the BB"
  | Some openings ->
    let ok = ref true in
    Array.iteri
      (fun pos per_coord ->
         (* which option does this position commit to? *)
         let option = ref (-1) in
         Array.iteri
           (fun j (o : Elgamal.opening) ->
              if Nat.equal o.Elgamal.msg Nat.one then option := j)
           per_coord;
         if !option < 0 || !option >= Array.length info.Voter.a_unused_lines then ok := false
         else begin
           match Hashtbl.find_opt v.opened_codes (serial, part, pos) with
           | None -> ok := false
           | Some bb_code ->
             let printed = info.Voter.a_unused_lines.(!option).Types.vote_code in
             if not (Dd_crypto.Ct.equal bb_code printed) then ok := false
         end)
      openings;
    check "g:unused-part-matches" !ok
      (Printf.sprintf "ballot %d's unused part matches the printed ballot" serial)

let audit ?(voter_audits = []) ?batch ?pool v =
  [ check_distinct_codes v;
    check_single_submission v;
    check_single_part v;
    check_openings ?batch ?pool v;
    check_zk ?batch ?pool v;
    check_tally v ]
  @ List.concat_map (fun info -> [ check_voter_code v info; check_voter_unused v info ])
    voter_audits

let all_ok checks = List.for_all (fun c -> c.ok) checks

let pp_checks fmt checks =
  List.iter
    (fun c -> Format.fprintf fmt "  [%s] %s — %s@." (if c.ok then "PASS" else "FAIL") c.name c.detail)
    checks
