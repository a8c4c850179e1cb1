(* Quickstart: a complete, real-cryptography D-DEMOS election in ~40
   lines of client code.

   Five voters, three options, 4 vote collectors (tolerating 1
   Byzantine), 3 bulletin-board replicas (tolerating 1), 3 trustees
   (2 needed to open anything). The Election Authority seals each
   node's initialization data into that node's (in-memory) store and
   is destroyed; votes are collected over the simulated network with
   real salted-hash validation, endorsement signatures, UCERTs and
   receipt-share reconstruction; the vote collectors agree on the final
   set with Bracha consensus; trustees open the homomorphic tally; and
   an auditor verifies the whole transcript.

   Run with:  dune exec examples/quickstart.exe *)

module Types = Ddemos.Types
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Auditor = Ddemos.Auditor

let () =
  let cfg =
    { Types.default_config with
      Types.election_id = "quickstart";
      Types.n_voters = 5;
      Types.m_options = 3 }
  in
  Printf.printf "Setting up election: %d voters, %d options, Nv=%d (fv=%d), Nb=%d, Nt=%d (ht=%d)\n%!"
    cfg.Types.n_voters cfg.Types.m_options cfg.Types.nv cfg.Types.fv cfg.Types.nb
    cfg.Types.nt cfg.Types.ht;
  let source = Node_source.in_memory cfg ~seed:"quickstart-seed" in

  (* peek at voter 0's printed ballot *)
  let ballot = source.Node_source.sv_ballot_for 0 in
  Printf.printf "\nVoter 0's ballot (serial %d), part A:\n" ballot.Types.serial;
  Array.iteri
    (fun option (line : Types.ballot_line) ->
       Printf.printf "  option %d: vote-code %s...  receipt %s\n" option
         (Dd_crypto.Sha256.hex_of_string (String.sub line.Types.vote_code 0 6))
         (Dd_crypto.Sha256.hex_of_string line.Types.receipt))
    ballot.Types.part_a.Types.lines;

  (* everyone votes *)
  let votes =
    [ { Election.vi_serial = 0; vi_choice = 1 };
      { Election.vi_serial = 1; vi_choice = 0 };
      { Election.vi_serial = 2; vi_choice = 1 };
      { Election.vi_serial = 3; vi_choice = 2 };
      { Election.vi_serial = 4; vi_choice = 1 } ]
  in
  Printf.printf "\nRunning the election (5 votes)...\n%!";
  let r =
    Election.run
      { (Election.default_params
           ~fidelity:(Election.Source source) cfg ~votes) with
        Election.concurrent_clients = 2; seed = "quickstart-run" }
  in
  Printf.printf "receipts issued and verified by voters: %d/5\n" r.Election.receipts_ok;

  (* the published tally *)
  (match r.Election.tally with
   | Some t ->
     Printf.printf "published tally: ";
     Array.iteri (fun i c -> Printf.printf "option%d=%d " i c) t;
     print_newline ()
   | None -> print_endline "no tally published?!");

  (* anyone can audit *)
  match Auditor.assemble ~cfg r.Election.bb_nodes with
  | None -> print_endline "auditor could not assemble a majority view"; exit 1
  | Some view ->
    let checks = Auditor.audit view in
    print_endline "\nAudit of the public bulletin board:";
    List.iter
      (fun c ->
         Printf.printf "  [%s] %s — %s\n" (if c.Auditor.ok then "PASS" else "FAIL")
           c.Auditor.name c.Auditor.detail)
      checks;
    Printf.printf "\nelection verified end-to-end: %b\n" (Auditor.all_ok checks);
    if not (Auditor.all_ok checks) then exit 1
