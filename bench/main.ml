(* Benchmark harness: regenerates every table and figure of the
   D-DEMOS evaluation (Section V).

     Figure 4a/4b  latency & throughput vs #VC, LAN
     Figure 4c     throughput vs #concurrent clients, LAN
     Figure 4d/4e  latency & throughput vs #VC, WAN (+25 ms)
     Figure 4f     throughput vs #concurrent clients, WAN
     Figure 5a     throughput vs electorate size n (50M..250M), disk
     Figure 5b     throughput vs #options m (2..10), disk
     Figure 5c     phase-duration breakdown vs #ballots cast
     Table  I      liveness time bounds per protocol step (+ measured)

   Also a Bechamel microbenchmark suite, one Test.make per table/figure,
   measuring the real cryptographic kernel that dominates it on THIS
   machine — these are the numbers that justify the cost model's
   constants (see lib/core/cost_model.ml).

   Usage:
     main.exe                 all figures, scaled-down quick mode
     main.exe fig4a ... table1 | micro | stream     specific parts
     main.exe --full          paper-scale parameters (slow; hours)
     main.exe --stream-n N    large stream point at N voters (CI smoke)

   Quick mode scales the cast-ballot counts down (the paper casts
   200,000 ballots per configuration); shapes are preserved. See
   EXPERIMENTS.md for quick-vs-paper parameter tables. *)

module Types = Ddemos.Types
module Election = Ddemos.Election
module Node_source = Ddemos.Node_source
module Cost_model = Ddemos.Cost_model
module Liveness = Ddemos.Liveness
module Ballot_gen = Ddemos.Ballot_gen
module Ballot_store = Ddemos.Ballot_store
module Election_store = Ddemos.Election_store
module Segment = Dd_segment.Segment
module File_device = Dd_store.File_device
module Net = Dd_sim.Net
module Stats = Dd_sim.Stats
module Runtime = Dd_serve.Runtime
module Loadgen = Dd_serve.Loadgen
module Socket = Dd_serve.Socket

let full_scale = Array.exists (( = ) "--full") Sys.argv

(* [--domains N] caps the multicore scaling points (micro suite runs
   d in {1,2,4} filtered to <= N). Default 4 so the committed baseline
   always carries the scaling entries; pass [--domains 1] on a
   single-core box to skip the oversubscribed points. *)
let bench_domains =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then 4
    else if Sys.argv.(i) = "--domains" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some d when d >= 1 -> min d 64
      | _ -> 4
    else scan (i + 1)
  in
  scan 1

(* [--stream-n N] overrides the stream section's large point (default
   100_000, the committed-baseline scale): CI's streaming-smoke job
   runs 10_000 on pull requests and the full 100_000 nightly. The
   small 1k anchor point is fixed — it is the denominator of the
   memory-flatness guard. *)
let stream_big_n =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then 100_000
    else if Sys.argv.(i) = "--stream-n" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n when n > 1_000 -> n
      | _ -> 100_000
    else scan (i + 1)
  in
  scan 1

(* [--serve-votes N] / [--serve-cc-max C] size the serving-runtime
   section: votes cast per throughput point and the largest client
   count of the concurrency curve. CI's serve-smoke job runs a small
   PR point; the nightly sweep takes the committed-baseline defaults. *)
let serve_votes =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then if full_scale then 1500 else 300
    else if Sys.argv.(i) = "--serve-votes" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n when n > 0 -> n
      | _ -> 300
    else scan (i + 1)
  in
  scan 1

let serve_cc_max =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then 256
    else if Sys.argv.(i) = "--serve-cc-max" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n when n > 0 -> n
      | _ -> 256
    else scan (i + 1)
  in
  scan 1

let scale n = if full_scale then n else max 200 (n / 100)

(* one simulated election for a figure data point *)
let run_point ?(n_voters = 200_000) ?(m = 4) ?(nv = 4) ?(cc = 400) ?(casts = scale 200_000)
    ?(wan = false) ?(disk = false) ?(run_vsc = false) ?(seed = "bench") () =
  let fv = (nv - 1) / 3 in
  let cfg =
    { Types.default_config with
      Types.n_voters; Types.m_options = m; Types.nv; Types.fv;
      Types.election_id = Printf.sprintf "bench-%d-%d-%d" n_voters m nv }
  in
  let votes =
    List.init (min casts n_voters)
      (fun i -> { Election.vi_serial = i; Election.vi_choice = i mod m })
  in
  let costs =
    if disk then Cost_model.with_disk Cost_model.default else Cost_model.default
  in
  let p = Election.default_params cfg ~votes in
  Election.run
    { p with
      Election.seed;
      latency = (if wan then Net.wan () else Net.lan);
      costs;
      concurrent_clients = cc;
      run_vsc;
      coin = Dd_consensus.Binary_batch.Common "bench-coin" }

let pr fmt = Printf.printf fmt
let flush_section () = flush stdout

let vc_counts = [ 4; 7; 10; 13; 16 ]
let cc_counts = [ 500; 1000; 1500; 2000 ]

(* Figures 4a/4b (LAN) and 4d/4e (WAN) share a run matrix. *)
let fig4_matrix ~wan =
  List.map
    (fun nv ->
       (nv,
        List.map
          (fun cc ->
             let r = run_point ~n_voters:200_000 ~m:4 ~nv ~cc ~wan () in
             (cc, r))
          cc_counts))
    vc_counts

let print_fig4_latency ~wan matrix =
  pr "# Figure 4%s: mean response time (s) vs #VC, %s (n=200k, m=4)\n"
    (if wan then "d" else "a") (if wan then "WAN" else "LAN");
  pr "%-5s %s\n" "#VC" (String.concat " " (List.map (Printf.sprintf "cc=%-8d") cc_counts));
  List.iter
    (fun (nv, row) ->
       pr "%-5d %s\n" nv
         (String.concat " "
            (List.map (fun (_, r) -> Printf.sprintf "%-11.3f" (Stats.mean r.Election.latencies)) row)))
    matrix;
  pr "\n";
  flush_section ()

let print_fig4_throughput ~wan matrix =
  pr "# Figure 4%s: throughput (ops/s) vs #VC, %s (n=200k, m=4)\n"
    (if wan then "e" else "b") (if wan then "WAN" else "LAN");
  pr "%-5s %s\n" "#VC" (String.concat " " (List.map (Printf.sprintf "cc=%-8d") cc_counts));
  List.iter
    (fun (nv, row) ->
       pr "%-5d %s\n" nv
         (String.concat " "
            (List.map (fun (_, r) -> Printf.sprintf "%-11.1f" r.Election.throughput) row)))
    matrix;
  pr "\n";
  flush_section ()

(* Figures 4c/4f: throughput vs concurrent clients. *)
let fig4_cc ~wan =
  let ccs = [ 200; 400; 800; 1200; 1600; 2000 ] in
  let nvs = [ 4; 7; 10; 13; 16 ] in
  pr "# Figure 4%s: throughput (ops/s) vs #concurrent clients, %s (n=200k, m=4)\n"
    (if wan then "f" else "c") (if wan then "WAN" else "LAN");
  pr "%-6s %s\n" "#cc" (String.concat " " (List.map (Printf.sprintf "VC=%-8d") nvs));
  List.iter
    (fun cc ->
       pr "%-6d %s\n" cc
         (String.concat " "
            (List.map
               (fun nv ->
                  let r = run_point ~nv ~cc ~wan () in
                  Printf.sprintf "%-11.1f" r.Election.throughput)
               nvs)))
    ccs;
  pr "\n";
  flush_section ()

(* Figure 5a: electorate-size sweep with the disk model. *)
let fig5a () =
  pr "# Figure 5a: throughput (ops/s) vs n (million ballots), disk, m=2, 4 VC, 400 cc\n";
  pr "%-14s %s\n" "n(million)" "throughput";
  List.iter
    (fun n_m ->
       let r =
         run_point ~n_voters:(n_m * 1_000_000) ~m:2 ~nv:4 ~cc:400 ~disk:true
           ~casts:(scale 200_000) ()
       in
       pr "%-14d %-10.1f\n" n_m r.Election.throughput)
    [ 50; 100; 150; 200; 250 ];
  pr "\n";
  flush_section ()

(* Figure 5b: option-count sweep. *)
let fig5b () =
  pr "# Figure 5b: throughput (ops/s) vs m, disk, n=200k, 4 VC, 400 cc\n";
  pr "%-4s %s\n" "m" "throughput";
  List.iter
    (fun m ->
       let r = run_point ~n_voters:200_000 ~m ~nv:4 ~cc:400 ~disk:true () in
       pr "%-4d %-10.1f\n" m r.Election.throughput)
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  pr "\n";
  flush_section ()

(* Figure 5c: full-pipeline phase breakdown. *)
let fig5c () =
  pr "# Figure 5c: phase durations (s) vs #ballots cast (4 VC, m=4, disk)\n";
  pr "%-10s %-16s %-18s %-24s %-14s\n"
    "#cast" "vote-collection" "vote-set-consensus" "push-BB+encrypted-tally" "publish-result";
  let paper_casts = [ 50_000; 100_000; 150_000; 200_000 ] in
  List.iter
    (fun casts ->
       let casts_scaled = scale casts in
       (* registered ballots = paper's n = 200k scaled alike, so that
          consensus covers non-voted ballots too *)
       let n_voters = scale 200_000 in
       let r =
         run_point ~n_voters ~m:4 ~nv:4 ~cc:400 ~disk:true ~casts:casts_scaled ~run_vsc:true
           ~seed:(Printf.sprintf "fig5c-%d" casts) ()
       in
       let ph = r.Election.phases in
       pr "%-10d %-16.1f %-18.1f %-24.1f %-14.1f\n"
         casts_scaled
         (ph.Election.t_end -. ph.Election.t_first_submit)
         (ph.Election.t_vsc_done -. ph.Election.t_end)
         (ph.Election.t_encrypted_tally -. ph.Election.t_vsc_done)
         (ph.Election.t_published -. ph.Election.t_encrypted_tally))
    paper_casts;
  pr "\n";
  flush_section ()

(* Table I: liveness bounds, symbolic and against a measured run. *)
let table1 () =
  pr "# Table I: time upper bounds per protocol step (Theorem 1)\n";
  let costs = Cost_model.default in
  (* worst-case per-procedure computation: dominate by UCERT/share
     verification at Nv = 16 *)
  let nv = 16 and fv = 5 in
  (* worst-case per-procedure computation across the voting protocol *)
  let t_comp =
    List.fold_left max 0.
      [ Cost_model.vote_validate costs ~n:200_000 ~m:4;
        Cost_model.endorse_handle costs ~n:200_000 ~m:4;
        Cost_model.vote_p_handle costs ~n:200_000 ~m:4 ~quorum:(nv - fv);
        Cost_model.ucert_verify costs ~quorum:(nv - fv) ]
  in
  let p =
    { Liveness.nv; fv; t_comp;
      delta_drift = 0.001;    (* NTP-grade clock sync *)
      delta_msg = 0.030 }     (* WAN-grade delivery bound *)
  in
  pr "parameters: Nv=%d fv=%d Tcomp=%.4fs Delta=%.4fs delta=%.4fs\n" nv fv t_comp
    p.Liveness.delta_drift p.Liveness.delta_msg;
  pr "%-45s %-12s\n" "step" "bound (s)";
  List.iter
    (fun s -> pr "%-45s %-12.4f\n" s.Liveness.label (Liveness.step_bound p s))
    (Liveness.steps p);
  pr "Twait = (2Nv+4)Tcomp + 12D + 6d               %-12.4f\n" (Liveness.t_wait p);
  List.iter
    (fun y ->
       pr "receipt probability, start %d*Twait before end: %.6f (theorem bound %.6f)\n" y
         (Liveness.receipt_probability p ~y)
         (1. -. (3. ** float_of_int (-y))))
    [ 1; 2; 3; 5 ];
  (* measured: Theorem 1 bounds an *unloaded* voter's wait, so compare
     against a lightly loaded 16-VC WAN run *)
  let r = run_point ~nv:16 ~cc:4 ~wan:true ~casts:200 () in
  pr "measured p99 receipt latency (16 VC, WAN, lightly loaded): %.3f s  [Twait bound %.3f s]\n\n"
    (Stats.p99 r.Election.latencies) (Liveness.t_wait p);
  flush_section ()

(* --- Bechamel microbenchmarks: one Test.make per table/figure --------- *)

let json_mode = Array.exists (( = ) "--json") Sys.argv

(* Sections that feed BENCH_micro.json ([micro], [stream]) append their
   rows here; the artifact is written once, after every selected section
   ran, so `micro stream --json` produces a single combined baseline. *)
let json_rows : (string * float) list ref = ref []

module Nat = Dd_bignum.Nat
module Curve = Dd_group.Curve

(* Write the microbenchmark rows as a JSON baseline artifact. The
   [*.seed-baseline] entries are the seed revision's algorithms measured
   in the same run (see seed_baseline.ml), so every file carries its own
   before/after comparison — no cross-machine or cross-run deltas. *)
let write_json rows =
  let rows = List.sort compare rows in
  let oc = open_out "BENCH_micro.json" in
  Printf.fprintf oc "{\n  \"schema\": \"ddemos-bench-micro/1\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" (if full_scale then "full" else "quick");
  Printf.fprintf oc "  \"unit\": \"ns/op\",\n  \"results\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, ns) ->
       Printf.fprintf oc "    %S: %.1f%s\n" name ns (if i < n - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  pr "wrote BENCH_micro.json (%d kernels)\n\n" n

let micro () =
  let open Bechamel in
  let rng = Dd_crypto.Drbg.create ~seed:"bench-micro" in
  let cfg4 = { Types.default_config with Types.n_voters = 1000; Types.m_options = 4 } in
  let store = Ballot_store.virtual_prf ~seed:"bench" ~cfg:cfg4 ~node:0 in
  let ballot = Ballot_gen.voter_ballot ~seed:"bench" ~serial:7 ~m:4 in
  let code = ballot.Types.part_a.Types.lines.(1).Types.vote_code in
  let sk, pk = Dd_sig.Schnorr.keygen rng in
  let signature = Dd_sig.Schnorr.sign rng ~sk ~pk "endorse|bench|7|code" in
  let shares =
    Dd_vss.Shamir_bytes.split rng ~secret:"receipt!" ~threshold:3 ~shares:4
  in
  let share_subset = [ shares.(0); shares.(1); shares.(2) ] in
  let commitment, opening = Dd_commit.Elgamal.commit_random rng ~msg:Dd_bignum.Nat.one in
  let state, first_move =
    let commitments, openings =
      Dd_commit.Unit_vector.commit rng ~options:4 ~choice:1
    in
    Dd_zkp.Ballot_proof.prove_commit rng ~commitments ~openings
  in
  ignore first_move;
  let challenge = Dd_group.Curve.random_scalar rng in
  let aes_key = Dd_crypto.Drbg.bytes rng 16 in
  let aes_w = Dd_crypto.Aes128.expand_key aes_key in
  let enc = Dd_crypto.Aes128.cbc_encrypt ~key:aes_key ~iv:(Dd_crypto.Drbg.bytes rng 16) code in
  ignore enc;
  (* arithmetic-stack operands: fast contexts vs frozen seed baselines *)
  let bar_secp = Seed_baseline.barrett Dd_bignum.Fe.prime in
  let draw () = Nat.rem (Nat.of_bytes_be (Dd_crypto.Drbg.bytes rng 32)) Dd_bignum.Fe.prime in
  let fx = draw () and fy = draw () in
  (* the field rows time Fe, the arithmetic Curve runs on *)
  let efx = Dd_bignum.Fe.of_nat fx and efy = Dd_bignum.Fe.of_nat fy and edst = Dd_bignum.Fe.make () in
  (* the full seed arithmetic stack, replicated (see seed_baseline.ml) *)
  let sc = Seed_baseline.scurve () in
  let sg = Seed_baseline.of_curve_point Curve.generator in
  let sg_table = Seed_baseline.make_base_table sc sg in
  let pk_seed = Seed_baseline.of_curve_point pk in
  let scalar = Dd_group.Curve.random_scalar rng in
  let point = Curve.mul scalar Curve.generator in
  let spoint = Seed_baseline.of_curve_point point in
  let pk_table = Dd_sig.Schnorr.make_pk_table pk in
  let sig_s, sig_e =
    (* signatures now encode (s, compressed R); the seed baseline's
       (s, e) form is reconstructed by hashing R back into e *)
    let bytes = Dd_sig.Schnorr.encode signature in
    let len = Curve.byte_len in
    let r = Option.get (Curve.decode_compressed (String.sub bytes len (len + 1))) in
    (Nat.of_bytes_be (String.sub bytes 0 len),
     Dd_sig.Schnorr.challenge ~commitment:r ~pk "endorse|bench|7|code")
  in
  let pts64 =
    Array.init 64 (fun i -> Curve.mul_int (i + 2) Curve.generator)
  in
  (* msm operands: random scalars on random points, batch-verifier shape *)
  let msm_pairs n =
    Array.init n (fun i ->
        (Dd_group.Curve.random_scalar rng,
         Curve.mul (Dd_group.Curve.random_scalar rng)
           (Curve.mul_int (i + 2) Curve.generator)))
  in
  let msm64 = msm_pairs 64 and msm512 = msm_pairs 512 in
  (* one lockstep group of fixed-base multiplications on G *)
  let comb_jobs =
    Array.init Curve.batch_group (fun _ ->
        [ (Dd_group.Group_ctx.g_table (), Dd_group.Curve.random_scalar rng) ])
  in
  (* UCERT fixture: a 16-collector Schnorr clique at quorum Nv - fv = 11,
     the worst-case Table I verification load *)
  let ucert_keys =
    Ddemos.Auth.deal_clique ~scheme:Ddemos.Auth.Schnorr_scheme ~seed:"bench-ucert" ~n:16
  in
  let ucert_quorum = 11 in
  let ucert =
    let body = Ddemos.Messages.endorsement_body ~election_id:"bench-ucert" ~serial:7 ~code in
    { Ddemos.Messages.u_serial = 7; u_code = code;
      endorsements =
        List.init ucert_quorum (fun i -> (i, Ddemos.Auth.sign ucert_keys.(i) body)) }
  in
  let ucert_verifier = ucert_keys.(12) in
  (* whole-election audit fixture: a real 100-voter full-crypto election
     whose BB view both audit variants then verify *)
  let audit_view =
    let cfg =
      { Types.default_config with
        Types.n_voters = 100; Types.m_options = 2; Types.election_id = "bench-audit" }
    in
    let setup = Ddemos.Ea.setup cfg ~seed:"bench-audit" in
    let votes =
      List.init 100 (fun i -> { Election.vi_serial = i; Election.vi_choice = i mod 2 })
    in
    let fidelity = Election.Source (Node_source.of_setup setup) in
    let p = Election.default_params ~fidelity cfg ~votes in
    let r = Election.run { p with Election.seed = "bench-audit"; concurrent_clients = 16 } in
    match Ddemos.Auditor.assemble ~cfg r.Election.bb_nodes with
    | Some v -> v
    | None -> failwith "bench: audit view did not assemble"
  in
  let tests =
    [ (* fig 4a-4f: the vote-collection path *)
      Test.make ~name:"fig4.vote-code-hash-validate"
        (Staged.stage (fun () -> Ballot_store.verify_vote_code store ~serial:7 ~vote_code:code));
      Test.make ~name:"fig4.endorsement-sign"
        (Staged.stage (fun () -> Dd_sig.Schnorr.sign rng ~sk ~pk "endorse|bench|7|code"));
      (* the hot path: Auth caches a comb table per signer, so UCERT /
         endorsement checks take the doubling-free route *)
      Test.make ~name:"fig4.endorsement-verify"
        (Staged.stage (fun () ->
             Dd_sig.Schnorr.verify_with_table ~pk ~pk_table "endorse|bench|7|code" signature));
      Test.make ~name:"fig4.endorsement-verify.no-table"
        (Staged.stage (fun () -> Dd_sig.Schnorr.verify ~pk "endorse|bench|7|code" signature));
      Test.make ~name:"fig4.endorsement-verify.seed-baseline"
        (Staged.stage (fun () ->
             Seed_baseline.schnorr_verify sc ~g_table:sg_table ~pk_seed ~pk
               "endorse|bench|7|code" ~s:sig_s ~e:sig_e));
      Test.make ~name:"fig4.receipt-reconstruct"
        (Staged.stage (fun () -> Dd_vss.Shamir_bytes.reconstruct ~threshold:3 share_subset));
      (* fig 5a: ballot derivation (the PostgreSQL-lookup stand-in) *)
      Test.make ~name:"fig5a.ballot-derivation"
        (Staged.stage
           (let serial = ref 0 in
            fun () ->
              incr serial;
              Ballot_gen.vc_lines ~seed:"bench" ~cfg:cfg4 ~serial:(!serial mod 1000)
                ~part:Types.A ~node:0));
      (* fig 5b: per-line hash checks as m grows *)
      Test.make ~name:"fig5b.salted-hash"
        (Staged.stage (fun () -> Ballot_gen.code_hash ~code ~salt:"saltsalt"));
      (* fig 5c: post-election kernels *)
      Test.make ~name:"fig5c.aes-decrypt-code"
        (Staged.stage (fun () -> Dd_crypto.Aes128.encrypt_block aes_w (String.sub code 0 16)));
      Test.make ~name:"fig5c.commitment-add"
        (Staged.stage (fun () -> Dd_commit.Elgamal.add commitment commitment));
      Test.make ~name:"fig5c.zk-finalize-part"
        (Staged.stage (fun () -> Dd_zkp.Ballot_proof.finalize state ~challenge));
      Test.make ~name:"fig5c.opening-verify"
        (Staged.stage (fun () -> Dd_commit.Elgamal.verify commitment opening));
      (* fig 5c: the whole-election audit, batched vs equation-by-equation *)
      Test.make ~name:"fig5c.audit-full.100"
        (Staged.stage (fun () ->
             [ Ddemos.Auditor.check_openings audit_view; Ddemos.Auditor.check_zk audit_view ]));
      Test.make ~name:"fig5c.audit-full.100.loop"
        (Staged.stage (fun () ->
             [ Ddemos.Auditor.check_openings ~batch:false audit_view;
               Ddemos.Auditor.check_zk ~batch:false audit_view ]));
      (* table 1: the Tcomp building block *)
      Test.make ~name:"table1.ucert-entry-verify"
        (Staged.stage (fun () ->
             Dd_sig.Schnorr.verify_with_table ~pk ~pk_table "endorse|bench|7|code" signature));
      (* table 1: a full quorum-11 UCERT through the batch verifier *)
      Test.make ~name:"table1.ucert-verify-batch"
        (Staged.stage (fun () ->
             Ddemos.Messages.verify_ucert ucert_verifier ~election_id:"bench-ucert"
               ~quorum:ucert_quorum ucert));
      (* arithmetic stack: field multiplication, before/after *)
      Test.make ~name:"arith.field-mul.secp256k1"
        (Staged.stage (fun () -> Dd_bignum.Fe.mul edst efx efy));
      Test.make ~name:"arith.field-mul.secp256k1.seed-baseline"
        (Staged.stage (fun () -> Seed_baseline.field_mul bar_secp fx fy));
      (* arithmetic stack: squaring kernel and Fermat inversion *)
      Test.make ~name:"arith.field-sqr.secp256k1"
        (Staged.stage (fun () -> Dd_bignum.Fe.sqr edst efx));
      Test.make ~name:"arith.field-inv.secp256k1"
        (Staged.stage (fun () -> Dd_bignum.Fe.inv edst efx));
      (* arithmetic stack: scalar multiplication variants *)
      Test.make ~name:"arith.point-mul.fixed-window"
        (Staged.stage (fun () -> Curve.mul scalar point));
      Test.make ~name:"arith.point-mul.wnaf-vartime"
        (Staged.stage (fun () -> Curve.mul_vartime scalar point));
      Test.make ~name:"arith.point-mul.seed-baseline"
        (Staged.stage (fun () -> Seed_baseline.point_mul sc scalar spoint));
      (* per multiplication: the measured group is divided by its size below *)
      Test.make ~name:"arith.comb-batch"
        (Staged.stage (fun () -> Curve.mul_base_batch comb_jobs));
      Test.make ~name:"arith.mul2-strauss-shamir"
        (Staged.stage (fun () -> Dd_group.Group_ctx.mul2_g sig_s sig_e point));
      (* arithmetic stack: batch normalization (64 points) *)
      Test.make ~name:"arith.to-affine.batch64"
        (Staged.stage (fun () -> Curve.to_affine_batch pts64));
      Test.make ~name:"arith.to-affine.loop64"
        (Staged.stage (fun () -> Array.map Curve.to_affine pts64));
      (* arithmetic stack: multi-scalar multiplication vs a mul loop *)
      Test.make ~name:"arith.msm.64"
        (Staged.stage (fun () -> Curve.msm msm64));
      Test.make ~name:"arith.msm.512"
        (Staged.stage (fun () -> Curve.msm msm512));
      Test.make ~name:"arith.msm.loop64"
        (Staged.stage (fun () ->
             Array.fold_left
               (fun acc (k, p) -> Curve.add acc (Curve.mul_vartime k p))
               Curve.infinity msm64)) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let measure tests =
    let raw =
      Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests)
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
    |> List.filter_map (fun (name, r) ->
        match Analyze.OLS.estimates r with
        | Some [ est ] -> Some (name, est)
        | _ -> None)
  in
  let rows =
    List.map
      (fun (name, est) ->
         if name = "micro arith.comb-batch" then (name, est /. float_of_int Curve.batch_group)
         else (name, est))
      (measure tests)
  in
  (* Multicore scaling points: the same audit and EA-setup workloads
     driven through explicit pools of 1/2/4 domains. Each domain count
     is measured in its OWN Benchmark.all phase with only its own pool
     alive: even idle worker domains turn every minor GC into a
     multi-domain stop-the-world barrier, which would distort the
     serial kernels above by several x. The .d1 entry takes the
     bit-identical serial fast path, so dN/d1 is a pure scheduling
     ratio (bench_guard compares those ratios, not absolute times,
     across machines). *)
  let ea_cfg =
    { Types.default_config with
      Types.n_voters = 100; Types.m_options = 2; Types.election_id = "bench-ea" }
  in
  let scaling_rows =
    List.concat_map
      (fun d ->
         if d > bench_domains then []
         else begin
           let pool = Dd_parallel.Pool.create ~domains:d () in
           let audit =
             Test.make ~name:(Printf.sprintf "fig5c.audit-full.100.d%d" d)
               (Staged.stage (fun () ->
                    [ Ddemos.Auditor.check_openings ~pool audit_view;
                      Ddemos.Auditor.check_zk ~pool audit_view ]))
           in
           let setup =
             Test.make ~name:(Printf.sprintf "ea-setup.100.d%d" d)
               (Staged.stage (fun () -> Ddemos.Ea.setup ~pool ea_cfg ~seed:"bench-ea"))
           in
           let r = measure (if d = 2 then [ audit ] else [ audit; setup ]) in
           Dd_parallel.Pool.shutdown pool;
           r
         end)
      [ 1; 2; 4 ]
  in
  let rows = List.sort compare (rows @ scaling_rows) in
  pr "# Microbenchmarks (this machine), one per table/figure kernel\n";
  List.iter (fun (name, est) -> pr "%-50s %12.0f ns/op\n" name est) rows;
  pr "\n";
  if json_mode then json_rows := !json_rows @ rows;
  flush_section ()

(* --- streaming-pipeline points: bounded-memory setup and audit -------- *)

(* VmHWM from /proc/self/status in bytes — the kernel's resident-set
   high-water mark for this process. 0.0 when /proc is unavailable. *)
let vm_hwm_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> close_in ic; acc
      | line ->
        let acc =
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            (try
               Scanf.sscanf
                 (String.sub line 6 (String.length line - 6))
                 " %d" (fun kb -> float_of_int kb *. 1024.)
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc)
          else acc
        in
        go acc
    in
    go 0.0

(* Each data point runs in a freshly exec'd child of this very binary
   (hidden [_stream_point] argv, handled before the normal dispatch)
   and reports (wall ns, top-heap bytes, VmHWM bytes) on stdout. Both
   memory figures are process-lifetime high-water marks that never go
   back down, so measuring in-process would report whatever earlier
   section peaked highest (the bechamel suite, the 100k point when
   measuring the 1k one after it); a pristine process per point gives
   each workload its own clean water line. (Unix.fork would do too,
   but OCaml 5 forbids it once the micro suite has created domains.) *)
let measure_spawned args =
  let rd, wr = Unix.pipe () in
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name |] args)
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match line, status with
  | Some l, Unix.WEXITED 0 ->
    Scanf.sscanf l "%f %f %f" (fun ns heap hwm -> (ns, heap, hwm))
  | _ -> failwith "bench stream: measurement child failed"

let stream_cfg ~tag ~n =
  { Types.default_config with
    Types.n_voters = n; Types.m_options = 4;
    Types.election_id = "bench-stream-" ^ tag }

(* The child side of [measure_spawned]: run one workload, print the
   measurements, exit. *)
let stream_point_child ~op ~tag ~n ~dir =
  let cfg = stream_cfg ~tag ~n in
  let dev () = File_device.create ~dir ~name:("plain-" ^ tag) in
  let t0 = Unix.gettimeofday () in
  (match op with
   | "setup" -> ignore (Election_store.write_plain (dev ()) cfg ~seed:"bench-stream")
   | "audit" ->
     let m =
       match Segment.load (dev ()) with
       | Segment.Sealed m -> m
       | _ -> failwith "bench stream: segment did not seal"
     in
     (match Election_store.verify_plain (dev ()) cfg m with
      | Ok k when k = n -> ()
      | Ok k -> failwith (Printf.sprintf "bench stream: verified %d of %d" k n)
      | Error e -> failwith ("bench stream: " ^ e))
   | _ -> failwith "bench stream: unknown op");
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let heap =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
  in
  Printf.printf "%.1f %.1f %.1f\n" ns heap (vm_hwm_bytes ());
  flush stdout

(* The million-voter streaming pipeline at its CI-scale points: stream
   the plain-profile validation material to a real on-disk segment
   ([Election_store.write_plain]), then audit it slice-by-slice against
   the sealed Merkle root ([verify_plain]). Single-shot wall-clock
   timing (these are multi-second whole-pipeline runs, not nanosecond
   kernels — bechamel's repeated-sampling machinery buys nothing here)
   plus per-point RSS. bench_guard enforces that the 100k RSS stays
   within 2x of the 1k RSS: memory is bounded by the chunk size, not
   the electorate. *)
let stream () =
  pr "# Streaming pipeline: plain-profile setup & slice audit (fresh child per point)\n";
  let tmp =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ddemos-bench-stream-%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d
  in
  let big_tag =
    if stream_big_n mod 1_000 = 0 then string_of_int (stream_big_n / 1_000) ^ "k"
    else string_of_int stream_big_n
  in
  let points = [ ("1k", 1_000); (big_tag, stream_big_n) ] in
  let rows =
    List.concat_map
      (fun (tag, n) ->
         let point op =
           measure_spawned [| "_stream_point"; op; tag; string_of_int n; tmp |]
         in
         let setup_ns, setup_heap, setup_hwm = point "setup" in
         let audit_ns, audit_heap, audit_hwm = point "audit" in
         (* prefer the kernel's RSS; fall back to the OCaml heap
            high-water where /proc is unavailable *)
         let rss hwm heap = if hwm > 0. then hwm else heap in
         pr "  n=%-5s setup %9.1f ms  rss %7.1f MiB   audit %9.1f ms  rss %7.1f MiB\n"
           tag (setup_ns /. 1e6)
           (rss setup_hwm setup_heap /. 1024. /. 1024.)
           (audit_ns /. 1e6)
           (rss audit_hwm audit_heap /. 1024. /. 1024.);
         [ ("ea-setup." ^ tag, setup_ns);
           ("audit-stream." ^ tag, audit_ns);
           ("ea-setup.rss." ^ tag, rss setup_hwm setup_heap);
           ("audit-stream.rss." ^ tag, rss audit_hwm audit_heap);
           ("ea-setup.heap." ^ tag, setup_heap);
           ("audit-stream.heap." ^ tag, audit_heap) ])
      points
  in
  let v k = List.assoc k rows in
  pr "  rss growth %s/1k: setup %.2fx, audit %.2fx (guard: < 2x)\n\n" big_tag
    (v ("ea-setup.rss." ^ big_tag) /. v "ea-setup.rss.1k")
    (v ("audit-stream.rss." ^ big_tag) /. v "audit-stream.rss.1k");
  Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
  (try Sys.rmdir tmp with Sys_error _ -> ());
  if json_mode then json_rows := !json_rows @ rows;
  flush_section ()

(* --- Fig. 4 serving runtime: responses/sec over real byte streams ----- *)

(* End-to-end vote collection through lib/serve: real Schnorr
   endorsements and UCERTs (source_prf), length-framed byte transport,
   closed-loop clients. The paper's Fig. 4 measures responses/sec vs
   concurrent clients; here the cluster shares one container core, so
   the curve shows the serving pipeline's overhead profile (batching
   amortization vs per-message cost), not multi-machine scaling —
   EXPERIMENTS.md tabulates both. *)
let serve () =
  pr "# Fig. 4 serving runtime: responses/sec, closed loop, %d votes per point\n"
    serve_votes;
  let seed = "bench-serve" in
  let cfg =
    { Types.default_config with
      Types.n_voters = serve_votes; Types.m_options = 3;
      Types.election_id = "bench-serve" }
  in
  let votes =
    List.init serve_votes (fun s -> { Loadgen.serial = s; Loadgen.choice = s mod 3 })
  in
  let ballot_for serial =
    Ballot_gen.voter_ballot ~seed ~serial ~m:cfg.Types.m_options
  in
  let time_run ~clients ~conn_for ~step =
    let lg =
      { Loadgen.default_params with Loadgen.lg_clients = clients; lg_seed = seed }
    in
    let t0 = Unix.gettimeofday () in
    let r = Loadgen.run ~params:lg ~conn_for ~step ~ballot_for ~nv:cfg.Types.nv ~votes () in
    let dt = Unix.gettimeofday () -. t0 in
    if r.Loadgen.receipts_ok <> serve_votes then
      failwith
        (Printf.sprintf "bench serve: %d/%d receipts (lost %d)"
           r.Loadgen.receipts_ok serve_votes r.Loadgen.lost);
    float_of_int r.Loadgen.receipts_ok /. dt
  in
  let pipe_point ~batching clients =
    let t =
      Runtime.create
        ~params:{ Runtime.default_params with Runtime.batching }
        (Runtime.source_prf cfg ~seed)
    in
    time_run ~clients
      ~conn_for:(fun ~client:_ ~node -> Runtime.client_conn t ~node)
      ~step:(fun () -> Runtime.step t)
  in
  let ccs = List.filter (fun c -> c <= serve_cc_max) [ 1; 8; 64; 256 ] in
  let rows =
    List.map
      (fun c ->
         let rps = pipe_point ~batching:true c in
         pr "  pipe  cc=%-4d batched %9.1f responses/sec\n" c rps;
         (Printf.sprintf "fig4.serve.pipe.rps.c%d" c, rps))
      ccs
  in
  (* the ablation point: same load, batch-verification stage disabled *)
  let serial_cc = min 64 serve_cc_max in
  let serial_rps = pipe_point ~batching:false serial_cc in
  let batched_rps =
    try List.assoc (Printf.sprintf "fig4.serve.pipe.rps.c%d" serial_cc) rows
    with Not_found -> serial_rps
  in
  pr "  pipe  cc=%-4d serial  %9.1f responses/sec  (batched verify %.2fx)\n"
    serial_cc serial_rps (batched_rps /. serial_rps);
  let rows =
    rows @ [ (Printf.sprintf "fig4.serve.pipe-serial.rps.c%d" serial_cc, serial_rps) ]
  in
  (* the socket backend: the identical closed loop through real
     Unix-domain sockets, accept wired into the tick *)
  let sock_rows =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ddemos-bench-serve-%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
    let t = Runtime.create (Runtime.source_prf cfg ~seed) in
    let path node = Filename.concat dir (Printf.sprintf "vc%d.sock" node) in
    let listeners =
      Array.init cfg.Types.nv (fun node -> Socket.listen ~path:(path node) ())
    in
    let step () =
      Array.iteri
        (fun node l ->
           let rec accept_all () =
             match Socket.accept l with
             | Some conn -> Runtime.accept t ~node conn; accept_all ()
             | None -> ()
           in
           accept_all ())
        listeners;
      Runtime.step t
    in
    let cc = min 64 serve_cc_max in
    let rps =
      time_run ~clients:cc
        ~conn_for:(fun ~client:_ ~node -> Socket.connect ~path:(path node))
        ~step
    in
    Array.iter Socket.close_listener listeners;
    (try
       Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
       Sys.rmdir dir
     with Sys_error _ -> ());
    pr "  sock  cc=%-4d batched %9.1f responses/sec\n" cc rps;
    [ (Printf.sprintf "fig4.serve.sock.rps.c%d" cc, rps) ]
  in
  pr "\n";
  if json_mode then json_rows := !json_rows @ rows @ sock_rows;
  flush_section ()

(* Ablations for the design choices DESIGN.md calls out: the batched
   consensus (the paper's own optimization), Bracha RBC's overhead, and
   the MAC-vs-signature authenticator trade. *)
let ablation () =
  pr "# Ablation: batched Vote Set Consensus vs naive per-ballot instances\n";
  let casts = scale 100_000 in
  let n_voters = scale 200_000 in
  let base = run_point ~n_voters ~casts ~nv:4 ~run_vsc:false ~seed:"abl-base" () in
  let vsc = run_point ~n_voters ~casts ~nv:4 ~run_vsc:true ~seed:"abl-base" () in
  let batched_msgs = vsc.Election.messages - base.Election.messages in
  (* a naive implementation runs one consensus instance per registered
     ballot: >= 1 round x 3 steps x Nv RBC broadcasts x ~2 Nv^2 RBC
     messages, per ballot *)
  let nv = 4 in
  let naive = n_voters * 3 * nv * (2 * nv * nv + nv) in
  pr "  registered ballots: %d, cast: %d\n" n_voters casts;
  pr "  batched VSC messages (measured): %d\n" batched_msgs;
  pr "  naive per-ballot estimate:       %d  (%.0fx more)\n\n" naive
    (float_of_int naive /. float_of_int (max 1 batched_msgs));
  pr "# Ablation: authenticator schemes (wall-clock, this machine)\n";
  let time label n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do ignore (f ()) done;
    pr "  %-28s %8.1f us/op\n" label (1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int n)
  in
  let ks = Ddemos.Auth.deal_clique ~scheme:Ddemos.Auth.Schnorr_scheme ~seed:"abl" ~n:4 in
  let km = Ddemos.Auth.deal_clique ~scheme:Ddemos.Auth.Mac_scheme ~seed:"abl" ~n:4 in
  let sig_tag = Ddemos.Auth.sign ks.(0) "body" in
  let mac_tag = Ddemos.Auth.sign km.(0) "body" in
  time "schnorr sign" 50 (fun () -> Ddemos.Auth.sign ks.(0) "body");
  time "schnorr verify" 50 (fun () -> Ddemos.Auth.verify ks.(1) ~signer:0 "body" sig_tag);
  time "mac-vector sign" 2000 (fun () -> Ddemos.Auth.sign km.(0) "body");
  time "mac verify" 2000 (fun () -> Ddemos.Auth.verify km.(1) ~signer:0 "body" mac_tag);
  pr "  (simulated costs always model the signature-based prototype)\n\n";
  flush_section ()

(* Empirical Theorem 1: with fv silent Byzantine collectors, measure the
   distribution of voter submission attempts against the theoretical
   hypergeometric retry probabilities. *)
let thm1 () =
  pr "# Theorem 1 empirical check: attempts per voter with fv silent Byzantine VCs\n";
  let nv = 7 and fv = 2 in
  let cfg =
    { Types.default_config with
      Types.n_voters = 4000; Types.m_options = 2; Types.nv; Types.fv;
      Types.election_id = "thm1" }
  in
  let casts = scale 100_000 in
  let votes = List.init (min casts 4000) (fun i -> { Election.vi_serial = i; vi_choice = i mod 2 }) in
  let p = Election.default_params cfg ~votes in
  let r =
    Election.run
      { p with
        Election.seed = "thm1";
        concurrent_clients = 50;
        voter_patience = 1.0;
        byzantine_vc = [ (1, Election.Silent); (4, Election.Silent) ];
        run_vsc = false }
  in
  let total = float_of_int r.Election.receipts_ok in
  pr "  Nv=%d fv=%d, %d voters, all received receipts: %b\n" nv fv
    (List.length votes) (r.Election.receipts_ok = List.length votes);
  pr "  %-10s %-12s %-12s\n" "attempts" "measured" "predicted";
  let predicted_ge y =
    (* probability of >= y failed attempts in a row, sampling without
       replacement (blacklisting) *)
    let rec go j acc =
      if j > y then acc
      else go (j + 1) (acc *. float_of_int (fv - j + 1) /. float_of_int (nv - j + 1))
    in
    go 1 1.0
  in
  Array.iteri
    (fun i count ->
       let measured = float_of_int count /. total in
       let predicted = predicted_ge i -. predicted_ge (i + 1) in
       pr "  %-10d %-12.4f %-12.4f\n" (i + 1) measured predicted)
    r.Election.attempt_counts;
  pr "\n";
  flush_section ()

let () =
  (* hidden child mode for the stream section's per-point measurement *)
  (match Sys.argv with
   | [| _; "_stream_point"; op; tag; n; dir |] ->
     stream_point_child ~op ~tag ~n:(int_of_string n) ~dir;
     exit 0
   | _ -> ());
  let want name =
    let rec drop_flags = function
      | ("--domains" | "--stream-n" | "--serve-votes" | "--serve-cc-max") :: _ :: rest ->
        drop_flags rest
      | [ ("--domains" | "--stream-n" | "--serve-votes" | "--serve-cc-max") ] -> []
      | ("--full" | "--json") :: rest -> drop_flags rest
      | a :: rest -> a :: drop_flags rest
      | [] -> []
    in
    match drop_flags (List.tl (Array.to_list Sys.argv)) with
    | [] -> true             (* no selection: run everything *)
    | sel -> List.mem name sel
  in
  pr "D-DEMOS benchmark harness (%s mode)\n" (if full_scale then "FULL paper-scale" else "quick");
  pr "paper: 200k ballots cast per point; quick mode casts %d per point\n\n" (scale 200_000);
  flush_section ();
  if want "micro" then micro ();
  if want "stream" then stream ();
  if want "serve" then serve ();
  if want "fig4a" || want "fig4b" then begin
    let matrix = fig4_matrix ~wan:false in
    if want "fig4a" then print_fig4_latency ~wan:false matrix;
    if want "fig4b" then print_fig4_throughput ~wan:false matrix
  end;
  if want "fig4c" then fig4_cc ~wan:false;
  if want "fig4d" || want "fig4e" then begin
    let matrix = fig4_matrix ~wan:true in
    if want "fig4d" then print_fig4_latency ~wan:true matrix;
    if want "fig4e" then print_fig4_throughput ~wan:true matrix
  end;
  if want "fig4f" then fig4_cc ~wan:true;
  if want "ablation" then ablation ();
  if want "fig5a" then fig5a ();
  if want "fig5b" then fig5b ();
  if want "fig5c" then fig5c ();
  if want "table1" then table1 ();
  if want "thm1" then thm1 ();
  if json_mode && !json_rows <> [] then write_json !json_rows
