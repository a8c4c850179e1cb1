(* Output checks. A run that fails any of them exits non-zero and
   reports no numbers. *)

module Types = Ddemos.Types
module Auditor = Ddemos.Auditor

(* What a full-crypto run published. *)
type election = {
  tally : Types.tally option;              (* majority read from the boards *)
  expected : Types.tally;                  (* of the votes that got receipts *)
  final_set : (int * string) list option;  (* majority read *)
  audit : Auditor.check list;
}

type outputs = {
  receipts_bad : int;                   (* receipts that mismatched the printed ballot *)
  cast : (int * string) list;           (* (serial, vote code) with a valid receipt *)
  decisions : bool option array array;  (* per VC node, after close *)
  election : election option;           (* election-day only *)
}

let failures o =
  let sorted l = List.sort compare l in
  let agreed d = List.filter (fun s -> d.(s) = Some true) (List.init (Array.length d) Fun.id) in
  let receipts =
    if o.receipts_bad = 0 then []
    else [ Printf.sprintf "%d receipts did not match the printed ballot" o.receipts_bad ]
  in
  let vote_set =
    match Array.to_list o.decisions with
    | [] -> [ "no VC node decided" ]
    | d :: others ->
      (if List.for_all (fun d' -> d' = d) others then []
       else [ "VC nodes decided different vote sets" ])
      @ (if agreed d = sorted (List.map fst o.cast) then []
         else [ "the agreed vote set is not the set of votes with receipts" ])
  in
  let published =
    match o.election with
    | None -> []
    | Some e ->
      (match e.tally with
       | Some t when t = e.expected -> []
       | Some _ -> [ "the published tally is not the tally of the cast votes" ]
       | None -> [ "no majority of boards published a tally" ])
      @ (match e.final_set with
         | Some s when sorted s = sorted o.cast -> []
         | Some _ -> [ "the final set is not the set of cast codes" ]
         | None -> [ "no majority of boards published a final set" ])
      @ (if Auditor.all_ok e.audit then []
         else
           [ "audit failed: "
             ^ String.concat ", "
                 (List.filter_map
                    (fun c -> if c.Auditor.ok then None else Some c.Auditor.name)
                    e.audit) ])
  in
  receipts @ vote_set @ published
