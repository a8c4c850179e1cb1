(** The bulletin board's ballot table: a sealed ["bb"] {!Dd_segment}
    segment written by {!Election_store}, served through a bounded
    {!Segment.Cache}, so a BB node's memory stays flat in the
    electorate size. {!Bb_node} and {!Auditor} read ballots only
    through this interface.

    The board's Merkle [root] is the sealed manifest's: every BB node
    serving the same segment bytes commits to the same root, whichever
    devices {!Election_store.write_setup} sealed them onto. *)

module Device = Dd_store.Device
module Segment = Dd_segment.Segment

type t

(** [create device manifest] — serves decoded chunks through a
    {!Segment.Cache} LRU of its default size. *)
val create : Device.t -> Segment.manifest -> t

val n_ballots : t -> int

(** One part's entries of one ballot — the random-access shape the BB
    handlers need; [None] when out of range or when the backing chunk
    fails CRC/Merkle/decode verification. *)
val entries : t -> serial:int -> part:Types.part_id -> Ea.bb_part_entry array option

(** Stream every ballot in serial order, one chunk resident at a time.
    Returns [false] if a chunk failed verification (the surviving
    prefix has been visited). *)
val iter : t -> (Ea.bb_ballot -> unit) -> bool

(** {!iter} over the encrypted vote codes alone: [f serial codes],
    [codes] part -> position -> [(iv, ct)], decoded by
    {!Election_store.decode_bb_codes}. It stops at the first chunk that
    fails verification or record whose structure is malformed; a
    record whose commitment or first-move bytes are not points does
    not stop it. *)
val iter_codes : t -> (int -> (string * string) array array -> unit) -> bool

(** The board's Merkle commitment: the sealed manifest's root. *)
val root : t -> string

(* lint: allow unused-export — test_election_store walks every chunk *)
val n_chunks : t -> int

(** Decoded ballots of one chunk: [(first_serial, ballots)]. *)
val slice : t -> int -> (int * Ea.bb_ballot array) option

(** [(chunk_root, path)] proving chunk [c] against {!root} — checked
    with {!Segment.verify_slice}. *)
val slice_proof : t -> int -> (string * Segment.Merkle.step list) option

(** (hits, misses) of the chunk cache; always [Some]. *)
val cache_stats : t -> (int * int) option
