(* CPU / disk service-time model for the simulated evaluation.

   The paper's numbers come from 2012-era Xeon machines (VC nodes:
   hexa-core E5-2420 @ 1.9 GHz) over Gigabit Ethernet, with PostgreSQL
   for the disk-based experiments. We reproduce the *shape* of the
   figures by charging each protocol step a service time on the
   destination node's simulated cores. Constants below are calibrated
   to land in the paper's magnitude ranges; `bench/main.exe` also
   reports this machine's true microbenchmark costs next to them, so
   the model is auditable.

   The structural drivers of the figures are not the constants but the
   counts: O(Nv) messages per vote per node and O(Nv) signature
   verifications per UCERT mean total per-vote CPU grows ~quadratically
   in Nv while cores grow linearly — that is the paper's 4 -> 7 VC
   throughput drop. The WAN penalty adds only link latency, no CPU,
   which is why WAN throughput matches LAN. *)

type t = {
  (* vote collection *)
  msg_overhead : float;       (* fixed per-message handling cost (net stack, codec) *)
  http_request : float;       (* parse + validate one client request *)
  hash_verify : float;        (* one salted-hash vote-code check *)
  sig_sign : float;           (* endorsement signature *)
  sig_verify : float;         (* endorsement / UCERT entry verification *)
  share_verify : float;       (* one receipt-share validity check *)
  share_reconstruct : float;  (* GF(256) receipt reconstruction *)
  ballot_lookup_mem : float;  (* in-memory election-data lookup *)
  (* disk experiments (figs 5a-5c) *)
  disk_enabled : bool;
  disk_base : float;          (* fixed per-lookup DB cost at the node *)
  disk_scale : float;         (* grows with electorate size, see below *)
  disk_alpha : float;
  disk_ref_n : float;         (* reference electorate (50M) *)
  (* post-election *)
  consensus_step : float;     (* handling one batched consensus message, per-slot *)
  announce_entry : float;     (* merging one ANNOUNCE entry *)
  aes_block : float;          (* one AES block decrypt (BB opening codes) *)
  zk_finalize_row : float;    (* trustee: one OR-proof row's final move *)
  zk_state_reconstruct : float;  (* trustee: reconstruct one part's prover state *)
  commit_add : float;         (* one homomorphic commitment addition *)
  share_sum : float;          (* trustee: adding one opening share *)
  bb_verify_set : float;      (* BB: comparing one submitted vote set *)
}

let default = {
  msg_overhead = 0.00006;
  http_request = 0.0005;
  hash_verify = 0.000002;
  (* RSA-like asymmetry (the prototype's PKI): signing is expensive,
     verification cheap — this is what makes per-vote CPU grow ~linearly
     in Nv from signing and ~quadratically from the O(Nv^2) VOTE_P
     traffic, reproducing the Fig. 4 throughput decline *)
  sig_sign = 0.0012;
  sig_verify = 0.00005;
  share_verify = 0.00006;
  share_reconstruct = 0.0001;
  ballot_lookup_mem = 0.00005;
  disk_enabled = false;
  (* fitted so that 4 lookups/vote over 24 cores reproduce Fig. 5a/5b
     levels: ~178 ops/s at n=200k, ~75 at 50M, ~45 at 250M *)
  disk_base = 0.0223;
  disk_scale = 0.0537;
  disk_alpha = 0.35;
  disk_ref_n = 50_000_000.;
  consensus_step = 0.0000012;
  announce_entry = 0.0000015;
  aes_block = 0.000003;
  zk_finalize_row = 0.00001;
  zk_state_reconstruct = 0.0003;
  commit_add = 0.00012;
  share_sum = 0.00002;
  bb_verify_set = 0.0000005;
}

(* Crypto constants recalibrated from this repo's own kernels, taken
   from the committed BENCH_micro.json (ns/op -> s/op; regenerate with
   `dune exec bench/main.exe -- micro --json`). Unlike [default]'s
   RSA-like PKI asymmetry, the Schnorr stack verifies at roughly double
   the signing cost even with per-pk comb tables — so figures driven by
   this profile trade signing load for verification load relative to
   the paper's shape. Rows used:
     sig_sign          <- fig4.endorsement-sign
     sig_verify        <- fig4.endorsement-verify (table path, as Auth runs)
     hash_verify       <- fig5b.salted-hash
     share_reconstruct <- fig4.receipt-reconstruct
     aes_block         <- fig5c.aes-decrypt-code
     commit_add        <- fig5c.commitment-add
     zk_finalize_row   <- fig5c.zk-finalize-part
   [sig_verify] is the *serial* per-endorsement cost; the real UCERT
   hot path now folds a quorum into one randomized batch
   (table1.ucert-verify-batch: ~0.41 ms/entry at quorum 11, ~2.7x
   cheaper), so [ucert_verify] below is an upper bound under this
   profile. Remaining constants (network overheads, disk, consensus)
   have no microbenchmark and are inherited from [default].

   Last recalibrated after the 62-bit limb + Montgomery field rewrite
   (field mul ~5x faster than the seed schoolbook+Barrett in the same
   run), which pulled every signature-path constant down ~1.4x. *)
let measured = {
  default with
  sig_sign = 0.00080;
  sig_verify = 0.00110;
  hash_verify = 0.0000017;
  share_reconstruct = 0.0000005;
  aes_block = 0.0000099;
  commit_add = 0.0000147;
  zk_finalize_row = 0.0000048;
}

let with_disk t = { t with disk_enabled = true }

(* Per-lookup database cost for an electorate of [n] ballots: a fixed
   cost plus a sublinear cache-miss term. Calibrated so the 50M -> 250M
   sweep roughly halves throughput, as in Fig. 5a. *)
let disk_lookup t ~n =
  if not t.disk_enabled then 0.
  else t.disk_base +. (t.disk_scale *. ((float_of_int n /. t.disk_ref_n) ** t.disk_alpha))

(* Cost for the responder to validate a VOTE: request parsing, ballot
   lookup (memory or disk), and scanning an average of [m] salted
   hashes over the 2m candidate lines. *)
let vote_validate t ~n ~m =
  t.http_request +. t.ballot_lookup_mem +. disk_lookup t ~n
  +. (float_of_int m *. t.hash_verify)

let endorse_handle t ~n ~m =
  t.ballot_lookup_mem +. disk_lookup t ~n
  +. (float_of_int m *. t.hash_verify) +. t.sig_sign

(* Verifying a UCERT means checking Nv - fv endorsement tags. *)
let ucert_verify t ~quorum = float_of_int quorum *. t.sig_verify

(* Handling one VOTE_P: the ballot row is already hot (it was fetched
   when the node endorsed), and a node verifies a given ballot's UCERT
   once and caches the result, so the per-message cost amortizes to one
   tag check plus the share validation. *)
let vote_p_handle t ~n ~m ~quorum =
  ignore n; ignore quorum;
  t.ballot_lookup_mem +. (float_of_int m *. t.hash_verify)
  +. t.sig_verify +. t.share_verify
