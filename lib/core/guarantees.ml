type guarantee =
  | Liveness
  | Receipt_contract
  | Ucert_uniqueness
  | Vote_set_agreement
  | Tally
  | Board_audit

type violation = { guarantee : guarantee; detail : string }

let name = function
  | Liveness -> "liveness"
  | Receipt_contract -> "receipt-contract"
  | Ucert_uniqueness -> "ucert-uniqueness"
  | Vote_set_agreement -> "vote-set-agreement"
  | Tally -> "tally"
  | Board_audit -> "board-audit"

let to_string v = name v.guarantee ^ ": " ^ v.detail

let violation guarantee fmt = Printf.ksprintf (fun detail -> { guarantee; detail }) fmt

let sorted s = List.sort compare s

let liveness ~intents ~receipts_ok ~exhausted ~timed_out =
  let v fmt = violation Liveness fmt in
  let n = List.length intents in
  let serials = List.length (List.sort_uniq compare (List.map fst intents)) in
  List.concat
    [ (if timed_out then [ v "timed out with work still pending" ] else []);
      (if receipts_ok >= serials && receipts_ok <= n then []
       else [ v "%d receipts for %d intents on %d serials" receipts_ok n serials ]);
      (if exhausted > 0 then [ v "%d voters exhausted every retry" exhausted ] else []) ]

let receipt_contract ~receipts_bad ~successes ~agreed =
  let v fmt = violation Receipt_contract fmt in
  let bad = if receipts_bad > 0 then [ v "%d voters saw a wrong receipt" receipts_bad ] else [] in
  match agreed, successes with
  | None, [] -> bad
  | None, _ -> bad @ [ v "no agreed vote set to check %d receipts against" (List.length successes) ]
  | Some set, _ ->
    bad
    @ List.filter_map
      (fun (serial, code) ->
         if List.exists (fun (s, c) -> s = serial && Dd_crypto.Ct.equal c code) set then None
         else Some (v "receipted vote on serial %d is not in the agreed set" serial))
      successes

let ucert_uniqueness = function
  | [] -> []
  | (serial, _, _) :: _ as l ->
    [ violation Ucert_uniqueness "%d conflicting UCERT(s) observed (first on serial %d)"
        (List.length l) serial ]

let vote_set_agreement ~required sets =
  let v fmt = violation Vote_set_agreement fmt in
  (if List.length sets >= required then []
   else [ v "%d of %d required collectors submitted a vote set" (List.length sets) required ])
  @
  match sets with
  | [] -> []
  | (first_node, first) :: rest ->
    let serials = List.map fst first in
    List.filter_map
      (fun (node, s) ->
         if sorted s = sorted first then None
         else Some (v "collector %d's vote set differs from collector %d's" node first_node))
      rest
    @
    if List.length serials = List.length (List.sort_uniq compare serials) then []
    else [ v "a serial appears twice in the agreed vote set" ]

(* Every tally the intents allow: each cast serial counts one of its
   in-range choices. *)
let tallies ~options intents =
  List.fold_left
    (fun acc serial ->
       let choices =
         List.sort_uniq compare
           (List.filter_map
              (fun (s, c) -> if s = serial && c >= 0 && c < options then Some c else None)
              intents)
       in
       if choices = [] then acc
       else
         List.concat_map
           (fun t -> List.map (fun c -> let t = Array.copy t in t.(c) <- t.(c) + 1; t) choices)
           acc)
    [ Array.make options 0 ]
    (List.sort_uniq compare (List.map fst intents))

let tally_str (t : Types.tally) =
  "[" ^ String.concat " " (Array.to_list (Array.map string_of_int t)) ^ "]"

let tally ~options ~intents = function
  | None -> [ violation Tally "no tally reached fb+1 agreement" ]
  | Some t ->
    let allowed = tallies ~options intents in
    if List.mem t allowed then []
    else
      [ violation Tally "tally %s is none of %s" (tally_str t)
          (String.concat " / " (List.map tally_str allowed)) ]

let board_audit ~cfg ~agreed bb_nodes =
  let v fmt = violation Board_audit fmt in
  let final_set =
    match Bb_reader.final_set ~cfg bb_nodes, agreed with
    | Bb_reader.No_majority, _ -> [ v "board majority read of the final set failed" ]
    | Bb_reader.Agreed set, Some first when sorted set <> sorted first ->
      [ v "board final set disagrees with the collectors' agreed set" ]
    | Bb_reader.Agreed _, _ -> []
  in
  final_set
  @
  match Auditor.assemble ~cfg bb_nodes with
  | None -> [ v "auditor could not assemble a majority view" ]
  | Some view ->
    List.filter_map
      (fun (c : Auditor.check) ->
         if c.Auditor.ok then None
         else Some (v "audit check %s failed — %s" c.Auditor.name c.Auditor.detail))
      (Auditor.audit view)

let check ?(quorum_sets = false) (p : Election.params) (r : Election.result) =
  let cfg = p.Election.cfg in
  let intents =
    List.map (fun i -> (i.Election.vi_serial, i.Election.vi_choice)) p.Election.votes
  in
  let agreed = match r.Election.vc_submit_sets with (_, s) :: _ -> Some s | [] -> None in
  let honest = cfg.Types.nv - List.length p.Election.byzantine_vc in
  let required = if quorum_sets then min honest (cfg.Types.nv - cfg.Types.fv) else honest in
  List.concat
    [ liveness ~intents ~receipts_ok:r.Election.receipts_ok ~exhausted:r.Election.exhausted
        ~timed_out:r.Election.timed_out;
      receipt_contract ~receipts_bad:r.Election.receipts_bad ~successes:r.Election.successes
        ~agreed;
      ucert_uniqueness r.Election.ucert_conflicts;
      vote_set_agreement ~required r.Election.vc_submit_sets;
      tally ~options:cfg.Types.m_options ~intents r.Election.tally;
      (match p.Election.fidelity with
       | Election.Source _ -> board_audit ~cfg ~agreed r.Election.bb_nodes
       | Election.Modeled -> []) ]
