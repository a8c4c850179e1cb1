(** Segmented on-disk election state: the bridge between {!Ea}'s
    streaming setup and the {!Dd_segment} format.

    A full-crypto election is laid out as one segment per consumer —
    ["bb"] (board ballots), ["ballots"] (the voters' printed ballots),
    ["vc-<i>"] per collector, ["trustee-<i>"] per trustee — all written
    in lockstep, one record per serial. {!Ea.setup_chunks} emits one
    lockstep group (a wave of them with a pool) at a time, and each
    emitted ballot is appended to every segment at once; the segment
    chunk, [chunk_size] records, is the durable checkpoint and the
    resume unit, and set-up memory does not depend on it. A crash
    mid-setup therefore loses at most the current chunk; {!resume_setup}
    picks up from the least-complete segment and reproduces a
    bit-identical set of files (pinned by test). *)

module Device = Dd_store.Device
module Segment = Dd_segment.Segment

(* --- record codecs (one record per serial) --------------------------- *)

val encode_bb_ballot : Ea.bb_ballot -> string
val decode_bb_ballot : string -> Ea.bb_ballot option

(** A board record's serial and encrypted vote codes, part -> position
    -> [(iv, ct)]. The record's structure (every varint, length and
    count, no trailing bytes) is checked as {!decode_bb_ballot} checks
    it, but the commitments and ZK first moves are passed over, not
    decoded into points. *)
val decode_bb_codes : string -> (int * (string * string) array array) option

(** Decode one collector's validation lines for one serial: part ->
    position. *)
val decode_vc_record : string -> Types.vc_line array array option

(** The token is unused; perfbench passes one. *)
val decode_trustee_record :
  Dd_group.Group_ctx.t -> string -> Ea.trustee_part_data array option

(* lint: secret — a printed ballot carries the voter's vote codes *)
val encode_voter_ballot : Types.ballot -> string  (* lint: allow unused-export — test_election_store *)
val decode_voter_ballot : string -> Types.ballot option

(* --- segment names ---------------------------------------------------- *)

val bb_segment : string
val ballots_segment : string
val vc_segment : int -> string
val trustee_segment : int -> string

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
    every emission straight into the segments, holding one wave of
    lockstep groups of material at a time. [devices name] supplies the device backing each
    segment (all must be empty): [File_device]s for a state dir, or
    [Device.Mem] backings for an election run in one process. It is the
    one writer of full-crypto election data. *)
val write_setup :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  (string -> Device.t) -> Types.config -> seed:string -> layout

(** Resume a crashed [write_setup] over the same devices: truncates each
    segment to its last durable checkpoint, regenerates from the
    least-complete one (skipping appends already durable elsewhere), and
    seals. The resulting files are byte-identical to an uninterrupted
    run. Also callable over untouched devices (full run) or fully
    sealed ones (a reload, which writes nothing). The layout passes
    {!load_layout}'s checks or is [None]: a state dir sealed under
    another seed or [n_voters] is refused, not served.

    Before any segment is truncated or appended to, serial 0's EA tags
    are checked against the static re-derived from [seed] in vc-0 and
    in trustee-0, in each one where a durable chunk (sealed, or
    checkpointed in a partial segment) holds them; on a mismatch the
    result is [None] and no device is written. The case that stays
    unchecked: durable records only in segments that carry no EA tag
    (vc-0 and trustee-0 both empty or torn before their first
    checkpoint), which a resume under another seed extends with its own
    records before the final check refuses the layout. *)
val resume_setup :
  ?pool:Dd_parallel.Pool.t -> ?chunk_size:int ->
  (string -> Device.t) -> Types.config -> seed:string -> layout option

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
