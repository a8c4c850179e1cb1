(** The auditor (Section III-I): verification of the whole election
    from public BB data — checks (a)-(e) — plus delegated checks
    (f)-(g) using audit information received from voters. All checks
    are pure; auditors hold no secrets. *)

module Elgamal = Dd_commit.Elgamal
module Ballot_proof = Dd_zkp.Ballot_proof

type check = {
  name : string;    (** e.g. ["e:zk-proofs"] *)
  ok : bool;
  detail : string;
}

(** A coherent election view assembled from the BB majority. The
    ballot table arrives as a {!Board} — the auditor streams it rather
    than holding it, so auditing keeps peak memory flat in the
    electorate size. *)
type view = {
  cfg : Types.config;
  board : Board.t;
  final_set : (int * string) list;
  voted : (int * (Types.part_id * int)) list;
  opened_codes : (int * Types.part_id * int, string) Hashtbl.t;
  unused_openings : (int * Types.part_id, Elgamal.opening array array) Hashtbl.t;
  zk_finals : (int * Types.part_id, Ballot_proof.final_move array) Hashtbl.t;
  tally : Types.tally option;
}

(** Majority-read the replicas (cross-checking the replicated
    initialization data by its board Merkle root); [None] until a
    majority has published the final set and opened the codes. [?gctx]
    is unused; perfbench passes one. *)
val assemble :
  ?gctx:Dd_group.Group_ctx.t -> cfg:Types.config -> Bb_node.t list -> view option

(** The [s:] checks of one chunk of [board] against the trusted board
    root ([?root] defaults to the board's own), reading only that
    chunk's bytes: the chunk exists ([s:slice-proof], whose detail says
    it is out of range), its root commits into the board root
    ([s:slice-in-root]), and its bytes verify and decode
    ([s:slice-readable]). Returns the checks and, when the chunk reads,
    its first serial and ballots. *)
val check_slice :
  ?root:string -> Board.t -> chunk:int -> check list * (int * Ea.bb_ballot array) option

(** Slice auditing: {!check_slice} on the view's board, then check (a)
    restricted to the slice's serials — so independent auditors can
    split the electorate into disjoint chunk ranges and each audit
    theirs against the same root. *)
(* lint: allow unused-export — test_election_store slice-auditor soundness (docs/INVARIANTS.md) *)
val audit_slice : ?root:string -> view -> chunk:int -> check list

(** Run every check: (a) distinct codes per ballot, (b) one submission
    per ballot, (c) one part used, (d) unused-part openings are valid
    unit vectors, (e) used-part ZK proofs verify under the voter-coin
    challenge, tally consistency, and — per delegated [voter_audits] —
    (f) the cast code is in the final set and (g) the opened unused
    part matches the printed ballot.

    The expensive checks (d) and (e) fold their group equations into
    one multi-scalar multiplication each, under random weights derived
    Fiat-Shamir-style from the audited data (sound — the EA commits
    before the weights exist — and replayable). A failing batch is
    bisected down to single equations, each checked alone at weight
    one, so the report still names the first offending (serial, part).

    A multi-domain [?pool] shards (d) and (e) across domains; the
    verdict and the named first offender are identical to the serial
    path (pinned by tests). *)
val audit :
  ?voter_audits:Voter.audit_info list -> ?pool:Dd_parallel.Pool.t -> view -> check list

val all_ok : check list -> bool
val pp_checks : Format.formatter -> check list -> unit

(** Exposed for targeted testing and benchmarks. On failure, [detail]
    names the first offending (serial, part), with or without a pool. *)
val check_zk : ?pool:Dd_parallel.Pool.t -> view -> check
val check_openings : ?pool:Dd_parallel.Pool.t -> view -> check
