(** Segmented on-disk election state: the bridge between {!Ea}'s
    streaming setup and the {!Dd_segment} format.

    A full-crypto election is laid out as one segment per consumer —
    ["bb"] (board ballots), ["ballots"] (the voters' printed ballots),
    ["vc-<i>"] per collector, ["trustee-<i>"] per trustee — all written
    in lockstep, one record per serial, with the segment chunk size
    equal to the setup chunk size so every {!Ea.setup_chunks} emission
    lands as exactly one durable checkpoint per segment. A crash
    mid-setup therefore loses at most the current chunk; {!resume_setup}
    picks up from the least-complete segment and reproduces a
    bit-identical set of files (pinned by test).

    The ["plain"] profile stores only the vote-code validation material
    (salted hashes), the part served on the vote-collection hot path —
    this is the profile the n=100k streaming benches and the CI smoke
    run at, since full-crypto generation is ~75 ms/voter (see
    EXPERIMENTS.md). *)

module Device = Dd_store.Device
module Segment = Dd_segment.Segment

(* --- record codecs (one record per serial) --------------------------- *)

val encode_bb_ballot : Ea.bb_ballot -> string
val decode_bb_ballot : string -> Ea.bb_ballot option

(** One collector's validation lines for one serial: part -> position. *)
val encode_vc_record : Types.vc_line array array -> string

val decode_vc_record : string -> Types.vc_line array array option

(** One trustee's data for one serial: part -> data. *)
(* lint: secret — trustee records carry opening and ZK-state shares *)
val encode_trustee_record : Ea.trustee_part_data array -> string

(** The token is unused; perfbench passes one. *)
val decode_trustee_record :
  Dd_group.Group_ctx.t -> string -> Ea.trustee_part_data array option

(* lint: secret — a printed ballot carries the voter's vote codes *)
val encode_voter_ballot : Types.ballot -> string
val decode_voter_ballot : string -> Types.ballot option

(* --- segment names ---------------------------------------------------- *)

val bb_segment : string
val ballots_segment : string
val vc_segment : int -> string
val trustee_segment : int -> string
val plain_segment : string

(* --- full-crypto streaming setup -------------------------------------- *)

(** The on-disk election: static material plus one sealed manifest per
    segment. *)
type layout = {
  l_static : Ea.static;
  l_bb : Segment.manifest;
  l_ballots : Segment.manifest;
  l_vc : Segment.manifest array;
  l_trustee : Segment.manifest array;
}

(** [write_setup devices cfg ~seed] runs {!Ea.setup_chunks} and streams
    every chunk straight into the segments, holding one chunk of
    material at a time. [devices name] supplies the device backing each
    segment (all must be empty). *)
val write_setup :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  (string -> Device.t) -> Types.config -> seed:string -> layout

(** [store_setup devices s] writes an EA setup already held in memory
    into the same segments, through the same record encoder and
    chunking: the files equal those of [write_setup] for the same seed
    and [chunk_size]. This is how a full-crypto election run in one
    process hands each node its own store. *)
val store_setup :
  ?chunk_size:int -> (string -> Device.t) -> Ea.setup -> layout

(** Resume a crashed [write_setup] over the same devices: truncates each
    segment to its last durable checkpoint, regenerates from the
    least-complete one (skipping appends already durable elsewhere), and
    seals. The resulting files are byte-identical to an uninterrupted
    run. Also callable over untouched devices (full run) or fully
    sealed ones (no-op reload). *)
val resume_setup :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  (string -> Device.t) -> Types.config -> seed:string -> layout

(** Reload the manifests of a previously sealed layout without
    generating anything. The static part is re-derived from [seed]
    (cheap). [None] if any segment is missing or unsealed, if a segment
    does not hold [cfg.n_voters] records, or if the re-derived static
    fails the EA authenticators sealed into the first vc-0 and
    trustee-0 records (a layout dealt under another seed, [nv] or
    [nt]). *)
val load_layout :
  (string -> Device.t) -> Types.config -> seed:string -> layout option

(** Trustee [i]'s init data, read and decoded from its whole segment.
    Raises [Invalid_argument] on an unreadable or undecodable segment
    (local-disk corruption, not network input). *)
val read_trustee_init : (string -> Device.t) -> layout -> int -> Ea.trustee_init

(** [voter_ballot_reader devices layout] reads voters' printed ballots
    by serial through a two-chunk cache over the ["ballots"] segment,
    which is opened on the first read. Raises [Invalid_argument] on an
    unreadable or undecodable record. *)
val voter_ballot_reader : (string -> Device.t) -> layout -> int -> Types.ballot

(* --- plain profile ----------------------------------------------------- *)

(** One serial's plain validation record: part -> position ->
    (code hash, salt). Pure in [seed] — no DRBG forks, so resume needs
    no transcript bookkeeping. *)
val encode_plain_record :
  code_hashes:string array array -> salts:string array array -> string

val decode_plain_record : string -> (string array array * string array array) option

(** Stream the plain validation material for all [n_voters] serials
    into the ["plain"] segment (device must be empty, or partially
    written by a crashed earlier run — it is resumed, not restarted). *)
val write_plain :
  ?chunk_size:int -> Device.t -> Types.config -> seed:string ->
  Segment.manifest

(** Verify one chunk of a plain segment against a trusted [root],
    reading only that chunk's bytes: slice proof, frame CRCs, chunk
    Merkle root, record structure against [cfg], within-part hash
    distinctness. Independent auditors split the chunk range and each
    call this against the same root. Returns the chunk's record
    count. *)
val verify_plain_slice :
  Device.t -> Types.config -> Segment.manifest -> root:string -> int ->
  (int, string) result

(** Streaming audit of a plain segment: {!verify_plain_slice} for every
    chunk against [manifest.root] (peak memory one chunk), plus the
    total-count check. Returns the number of records verified, or
    [Error] with the first offending chunk. *)
val verify_plain :
  Device.t -> Types.config -> Segment.manifest -> (int, string) result
