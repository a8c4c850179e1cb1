(** Append-only, CRC32-guarded, Merkle-committed segment files.

    A segment is the on-disk unit of the streaming election pipeline:
    ballots, board entries and per-node line tables are written once,
    in record order, through the sans-IO {!Dd_store.Device} abstraction
    (the in-memory crash-simulating backend in tests, [File_device] in a
    real deployment) and then served read-only with bounded memory.

    Layout — a sequence of WAL frames ([crc32 | varint len | payload],
    {!Dd_store.Wal}), each payload tag-discriminated:

    - [header]: magic, application [kind] string, [chunk_size];
    - [data]: one application record (an opaque byte string);
    - [chunk trailer]: index range and the Merkle root over the chunk's
      record payloads — appended and synced every [chunk_size] records,
      so a trailer is also the writer's durable checkpoint;
    - [footer]: record total and the top-level Merkle root over chunk
      roots — present exactly when the segment is sealed.

    The segment's commitment is the top root: chunk roots are its
    leaves, so one chunk plus an O(log n_chunks) sibling path can be
    verified against the root without reading any other chunk
    ({!slice_proof} / {!Merkle.verify}). A torn tail (crash mid-chunk)
    never corrupts sealed chunks: {!load} reports the clean prefix and
    {!resume} truncates back to the last checkpoint.

    Taint posture (ddemos-lint R7): record payloads are opaque bytes
    whose secrecy belongs to the owning codec — {!Election_store}'s
    trustee and voter-ballot encoders are declared [lint: secret] in
    its interface, so a flow from them through {!append} into the frame
    encoder is reported at the caller, where a deliberate write to
    at-rest storage can be explicitly allowed. Roots, chunk roots and
    sibling paths are hash commitments and carry no taint
    ([lint: public] in {!Merkle}). *)

module Device = Dd_store.Device
module Merkle = Dd_crypto.Merkle

(** Sealed-segment summary: everything a reader needs to fetch and
    verify chunks with random access. Reconstructed from the file by
    {!load}; never trusted beyond what the per-chunk CRCs and Merkle
    roots confirm. *)
type manifest = {
  kind : string;  (** application label from the header *)
  chunk_size : int;
  total : int;  (** records in the segment *)
  chunk_first : int array;  (** first record index of each chunk *)
  chunk_count : int array;
  chunk_root : string array;  (** Merkle root over each chunk's payloads *)
  chunk_pos : int array;  (** byte offset of the chunk's first data frame *)
  chunk_len : int array;  (** byte length of the chunk's data-frame span *)
  root : string;  (** top root: Merkle over [chunk_root] as leaves *)
}

val n_chunks : manifest -> int

(** Streaming writer. Appends buffer in the device's volatile tail
    between checkpoints; every chunk trailer is followed by a sync, so
    at most [chunk_size] records are ever at risk. *)
type writer

(** Open a fresh segment on an empty device: writes and syncs the
    header. Raises [Invalid_argument] on a non-empty device (use
    {!resume}) or a non-positive [chunk_size]. *)
val create_writer : chunk_size:int -> Device.t -> kind:string -> writer

(** Records appended so far (including ones already durable). *)
val written : writer -> int

(** Frame one record ([Wal.frame] of the data tag and length before
    it, one allocation of the frame's size) and append it. *)
val append : writer -> string -> unit

(** Flush the final partial chunk (if any), write the footer, sync, and
    return the manifest. The writer must not be used afterwards. *)
val seal : writer -> manifest

(** Result of reading a device that should hold a segment. *)
type load_result =
  | Empty  (** no bytes at all: a fresh device *)
  | Sealed of manifest
  | Partial of manifest
      (** header plus zero or more complete chunks, but no footer — a
          writer crashed. The manifest covers the durable chunks, which
          {!read_chunk} reads as a sealed segment's: its [total] is the
          first record not covered by a durable checkpoint; data frames
          past the last trailer (and any torn tail) are ignored. *)
  | Corrupt of string  (** structurally broken beyond the torn-tail model *)

(** Scan the device with a sliding window (never materializing the
    log) and classify it. Total. *)
val load : Device.t -> load_result

(** Reopen a partially-written segment for appending: truncates the log
    back to the last durable checkpoint and returns the writer plus the
    number of records already safely on disk — the caller regenerates
    from that index. Raises [Invalid_argument] on a sealed or corrupt
    device, or on a [kind] mismatch. *)
val resume : Device.t -> kind:string -> writer * int

(** [read_chunk device manifest c] fetches chunk [c] with one bounded
    [log_read], re-verifies every frame CRC and the chunk's Merkle root,
    and returns the record payloads. Frames are parsed in place; each
    record is copied out once. [None] if the bytes no longer match the
    manifest (disk corruption). *)
val read_chunk : Device.t -> manifest -> int -> string array option

(** Sequential streaming read of all records, one chunk resident at a
    time. [f index payload]. Returns [false] (stopping early) if any
    chunk fails verification. *)
(* lint: allow unused-export — test_segment "iter_records = read_all" *)
val iter_records : Device.t -> manifest -> (int -> string -> unit) -> bool

(** All records, materialized — test-sized segments only. [None] if any
    chunk fails verification. *)
val read_all : Device.t -> manifest -> string array option

(** Sibling path proving chunk [c]'s root against [manifest.root]; an
    auditor holding only the trusted top root checks it with
    [Merkle.verify ~root ~leaf_digest:(Merkle.leaf_hash chunk_root)]. *)
val slice_proof : manifest -> int -> Merkle.step list

(** [verify_slice ~root ~chunk_root proof] — does this chunk root, under
    this proof, commit into the segment root? *)
val verify_slice : root:string -> chunk_root:string -> Merkle.step list -> bool

(** Bounded LRU of decoded chunks, fronting {!read_chunk} for serving
    layers that revisit records (the segment-backed ballot store / board). *)
module Cache : sig
  type t

  (** [create ?slots device manifest] — [slots] decoded chunks are kept
      resident (default 4; at least 1). *)
  val create : ?slots:int -> Device.t -> manifest -> t

  (** The record at [index], through the cache. [None] on out-of-range
      or chunk verification failure. *)
  val record : t -> int -> string option

  (** The whole chunk holding no particular record, through the cache:
      [chunk t c]. *)
  val chunk : t -> int -> string array option

  (** (hits, misses) — for tests pinning the bounded-memory contract. *)
  val stats : t -> int * int
end
