(* A national-style referendum under attack: 7 vote collectors spread
   across a WAN, 2 of them Byzantine (one silent, one that completes
   the protocol but withholds receipts), 5000 registered voters, 1200
   casting. [d]-patient voters blacklist unresponsive collectors and
   retry; every voter still walks away with a verifiable receipt, and
   the fault-free tally is published — the paper's liveness story
   (Theorem 1) end to end.

   Run with:  dune exec examples/byzantine_referendum.exe *)

module Types = Ddemos.Types
module Election = Ddemos.Election
module Stats = Dd_sim.Stats
module Liveness = Ddemos.Liveness

let () =
  let cfg =
    { Types.default_config with
      Types.election_id = "referendum-2026";
      Types.n_voters = 5000;
      Types.m_options = 2;       (* YES / NO *)
      Types.nv = 7; Types.fv = 2 }
  in
  let turnout = 1200 in
  let votes =
    (* 58/42-ish split *)
    List.init turnout (fun i -> { Election.vi_serial = i * 4; vi_choice = (if i mod 100 < 58 then 0 else 1) })
  in
  Printf.printf "Referendum: %d registered, %d voting, Nv=%d with %d Byzantine, WAN latency\n%!"
    cfg.Types.n_voters turnout cfg.Types.nv 2;

  let patience = 3.0 in
  let p = Election.default_params cfg ~votes in
  let r =
    Election.run
      { p with
        Election.seed = "referendum";
        latency = Dd_sim.Net.wan;
        concurrent_clients = 100;
        voter_patience = patience;
        byzantine_vc = [ (2, Election.Silent); (5, Election.Drop_receipts) ];
        coin = Dd_consensus.Binary_batch.Common "referendum-coin" }
  in

  Printf.printf "receipts verified: %d/%d (bad: %d, voters giving up: %d)\n"
    r.Election.receipts_ok turnout r.Election.receipts_bad r.Election.exhausted;
  Printf.printf "vote-collection latency: mean %.3fs  median %.3fs  p99 %.3fs  max %.3fs\n"
    (Stats.mean r.Election.latencies) (Stats.median r.Election.latencies)
    (Stats.p99 r.Election.latencies) (Stats.max_sample r.Election.latencies)
    ;
  Printf.printf "throughput: %.1f votes/s over %d simulated network messages\n"
    r.Election.throughput r.Election.messages;

  (* Theorem 1's prediction for these parameters *)
  let lp =
    { Liveness.nv = cfg.Types.nv; fv = cfg.Types.fv;
      t_comp = 0.002; delta_drift = 0.001; delta_msg = 0.030 }
  in
  Printf.printf "\nTheorem 1: Twait = %.3fs; a voter retrying every Twait reaches an honest\n"
    (Liveness.t_wait lp);
  Printf.printf "collector within %d attempts with certainty; after y attempts:\n" (cfg.Types.fv + 1);
  List.iter
    (fun y ->
       Printf.printf "  y=%d: receipt probability %.4f (theorem lower bound %.4f)\n" y
         (Liveness.receipt_probability lp ~y)
         (1. -. (3. ** float_of_int (-y))))
    [ 1; 2 ];

  match r.Election.tally with
  | Some t ->
    Printf.printf "\nresult: YES %d — NO %d  (expected YES %d — NO %d)\n" t.(0) t.(1)
      r.Election.expected_tally.(0) r.Election.expected_tally.(1);
    if t = r.Election.expected_tally then
      print_endline "tally matches the cast votes exactly, despite 2 Byzantine collectors"
  | None -> print_endline "no tally agreed?!"
