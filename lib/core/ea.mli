(** The Election Authority (Section III-D): the setup-only component.
    {!setup_chunks} generates every party's initialization data — voter
    ballots, VC validation data and receipt/msk shares, BB commitments
    with encrypted vote codes and ZK first moves, trustee opening
    shares and ZK prover-state shares — one lockstep group of serials
    at a time, after which the EA is destroyed. It keeps nothing it
    emits: {!Election_store.write_setup} seals each ballot into the
    segment of the node it belongs to, so once set-up ends no in-memory record holds
    the per-ballot material (printed ballots, VC lines, trustee
    shares); only the O(1) {!static} part (keys, msk shares) stays
    with the layout. It carries no master seed. *)

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

type trustee_part_data = {
  t_shares : Elgamal_vss.share array array;  (* lint: secret *) (** position -> coordinate *)
  t_zk_state_share : Shamir_bytes.share;  (* lint: secret *)
  t_zk_state_tag : Auth.tag;
}

type trustee_init = {
  t_id : int;
  t_ballots : trustee_part_data array array;  (** serial -> part *)
}

(** The EA-authenticated body binding a trustee's ZK-state share. *)
val zk_state_body :
  election_id:string -> serial:int -> part:Types.part_id -> trustee:int ->
  Shamir_bytes.share -> string

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
}

(** Every party's init data for the serials [ck_first, ck_first +
    Array.length ck_ballots): one wave of lockstep groups, at most
    {!group_ballots} times the pool's size, in serial order. It is the
    unit of emission only; the segment chunk (the Merkle checkpoint and
    resume unit) is [chunk_size] records of {!setup_chunks}. *)
type chunk = {
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
val draw_part :  (* lint: allow unused-export — test_core "part comb counts" *)
  Types.config -> seed:string -> ea_vc:Auth.keys -> ea_trustee:Auth.keys ->
  Dd_crypto.Drbg.t -> serial:int -> part:Types.part_id -> drawn_part

(** The part's curve points as {!Dd_group.Curve.mul_base_batch} jobs:
    the EA's Schnorr nonce commitments, and per position the m
    commitments and the ballot proof's first move. *)
(* lint: allow unused-export — test_core "part comb counts" *)
val part_jobs : drawn_part -> Dd_group.Curve.comb_job list

(** [List.length (part_jobs d)] for every part: [nv m + nt + m (6m + 2)].
    It sizes the lockstep groups of {!setup_chunks}. *)
(* lint: allow unused-export — test_core "part comb counts" *)
val jobs_per_part : Types.config -> int

(** Ballots per lockstep group: [batch_group / (2 * jobs_per_part)],
    at least one. *)
(* lint: allow unused-export — test_election_store "one group per emission" *)
val group_ballots : Types.config -> int

(** Chunk size used when the caller does not pick one. *)
val default_setup_chunk : int

(** Full-cryptography setup, the one generator of a full-crypto
    election. It generates the ballots in lockstep groups of
    {!group_ballots}, one group per pool domain at a time, and calls
    [emit] once per such wave, in serial order; it holds only the wave
    in decoded form ({!Election_store.write_setup} seals each wave into
    the segments; nothing else retains it). Cost grows with
    [n_voters * m_options^2]; large-scale vote-collection runs use
    {!Ballot_store.virtual_prf} instead. Deterministic in [seed] and
    *grouping-invariant*: the parent DRBG is consumed only by
    per-(serial, part) forks in ascending serial order, so every
    [chunk_size] and every [?pool] size (default the [DDEMOS_DOMAINS]
    pool) yields bit-identical material. [chunk_size] is the segments'
    chunk: set-up memory does not depend on it. [from_chunk] resumes a
    crashed run: serials below [from_chunk * chunk_size] are skipped
    (their forks are drawn and discarded to keep the transcript
    aligned) and emission starts at that serial. Raises
    [Invalid_argument] (naming [Ea.setup_chunks]) on an invalid
    configuration. *)
val setup_chunks :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  ?from_chunk:int -> Types.config -> seed:string -> emit:(chunk -> unit) ->
  static
