(** The Election Authority (Section III-D): the setup-only component.
    [setup] generates every party's initialization data — voter
    ballots, VC validation data and receipt/msk shares, BB commitments
    with encrypted vote codes and ZK first moves, trustee opening
    shares and ZK prover-state shares — after which the EA is
    destroyed (drop the [setup] value; the malicious-EA tests
    deliberately keep and corrupt it instead). The {!setup} value
    carries no master seed: it holds only what the EA hands out. *)

module Elgamal = Dd_commit.Elgamal
module Elgamal_vss = Dd_vss.Elgamal_vss
module Shamir_bytes = Dd_vss.Shamir_bytes
module Ballot_proof = Dd_zkp.Ballot_proof

(** One BB entry (a ballot-part position, in permuted order): the
    AES-128-CBC$-encrypted vote code, the m option-encoding commitment
    coordinates, and the ZK first move. *)
type bb_part_entry = {
  enc_code : string * string;  (** (iv, ciphertext) under msk *)
  commitment : Elgamal.t array;
  zk_first : Ballot_proof.first_move;
}

type bb_ballot = {
  bb_serial : int;
  bb_parts : bb_part_entry array array;  (** part (A=0, B=1) -> position *)
}

(** What every BB node holds besides its ballot table, which it serves
    from a sealed ["bb"] segment (see {!Board}). *)
type bb_init = {
  hmsk : string;       (** SHA256(msk || salt): commits the BB to the key *)
  salt_msk : string;
}

type vc_node_init = {
  vc_id : int;
  vc_msk_share : Shamir_bytes.share;  (* lint: secret *)
  vc_lines : Types.vc_line array array array;  (** serial -> part -> position *)
}

type trustee_part_data = {
  t_shares : Elgamal_vss.share array array;  (* lint: secret *) (** position -> coordinate *)
  t_zk_state_share : Shamir_bytes.share;  (* lint: secret *)
  t_zk_state_tag : Auth.tag;
}

type trustee_init = {
  t_id : int;
  t_ballots : trustee_part_data array array;  (** serial -> part *)
}

type setup = {
  cfg : Types.config;
  ballots : Types.ballot array;      (** distributed to voters *)
  vc_keys : Auth.keys array;         (** clique of nv+1; index nv is the EA *)
  trustee_keys : Auth.keys array;    (** clique of nt+1; index nt is the EA *)
  vc_init : vc_node_init array;
  bb_init : bb_init;
  bb_ballots : bb_ballot array;      (** the BB's ballot table, by serial *)
  trustee_init : trustee_init array;
}

(** The EA-authenticated body binding a trustee's ZK-state share. *)
val zk_state_body :
  election_id:string -> serial:int -> part:Types.part_id -> trustee:int ->
  Shamir_bytes.share -> string

val inverse_perm : int array -> int array

(** The O(1)-in-[n_voters] output of {!setup_chunks}: keys, msk
    commitments and shares. The O(n) material streams through the
    [emit] callback. *)
type static = {
  st_cfg : Types.config;
  st_gctx : Dd_group.Group_ctx.t;  (** perfbench reads it; nothing else *)
  st_vc_keys : Auth.keys array;
  st_trustee_keys : Auth.keys array;
  st_hmsk : string;
  st_salt_msk : string;
  st_msk_shares : Shamir_bytes.share array;  (* lint: secret *)
  st_n_chunks : int;
  st_chunk_size : int;
}

(** One contiguous serial range of every party's init data — the unit
    of streaming emission and durable checkpointing. Covers serials
    [ck_first, ck_first + Array.length ck_ballots). *)
type chunk = {
  ck_index : int;
  ck_first : int;
  ck_ballots : Types.ballot array;  (* lint: secret *)
  ck_bb : bb_ballot array;
  ck_vc : Types.vc_line array array array array;
      (** node -> serial-in-chunk -> part -> position *)
  ck_trustee : trustee_part_data array array array;  (* lint: secret *)
      (** trustee -> serial-in-chunk -> part *)
}

(** One ballot part's scalars, drawn by {!draw_part} from the part's own
    DRBG: everything {!setup_chunks} needs for the part except its
    curve points. *)
type drawn_part

(* lint: secret *)
val draw_part :
  Types.config -> seed:string -> ea_vc:Auth.keys -> ea_trustee:Auth.keys ->
  Dd_crypto.Drbg.t -> serial:int -> part:Types.part_id -> drawn_part

(** The part's curve points as {!Dd_group.Curve.mul_base_batch} jobs:
    the EA's Schnorr nonce commitments, and per position the m
    commitments and the ballot proof's first move. *)
val part_jobs : drawn_part -> Dd_group.Curve.comb_job list

(** [List.length (part_jobs d)] for every part under the
    configuration: [nv m + nt + m (6m + 2)]. It sizes the lockstep
    groups of {!setup_chunks}. *)
val jobs_per_part : Types.config -> int

(** Chunk size used when the caller does not pick one. *)
val default_setup_chunk : int

(** Streaming full-cryptography setup: generates the election in
    ascending chunks of [chunk_size] serials, calling [emit] once per
    chunk, with only one chunk of material resident at a time (the
    caller decides what to retain — the segment writers stream it to
    disk). Deterministic in [seed] and *chunking-invariant*: the parent
    DRBG is consumed only by per-(serial, part) forks in ascending
    serial order, so every chunk size (and every [?pool] size) yields
    bit-identical material. [from_chunk] resumes a crashed run: earlier
    chunks are skipped (their forks are drawn and discarded to keep the
    transcript aligned) and emission starts at that chunk.
    Raises [Invalid_argument] on an invalid configuration. *)
val setup_chunks :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  ?from_chunk:int -> Types.config -> seed:string -> emit:(chunk -> unit) ->
  static

(** Full-cryptography setup; deterministic in [seed]. Cost grows with
    [n_voters * m_options^2] — intended for tests, examples, and
    post-election benchmarks; large-scale vote-collection runs use
    {!Ballot_store.virtual_prf} or the streaming {!setup_chunks}
    instead. Per-ballot generation shards across [?pool] (default: the
    [DDEMOS_DOMAINS] pool); the output is a pure function of [seed],
    identical for every pool and chunk size, because each (serial,
    part) draws from its own serially pre-forked DRBG.
    Raises [Invalid_argument] on an invalid configuration. *)
val setup :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  Types.config -> seed:string -> setup
