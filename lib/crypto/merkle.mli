(** Domain-separated SHA-256 Merkle trees over byte-string leaves.

    Used by the streaming election pipeline: each on-disk segment chunk
    carries a Merkle root over its record payloads, and a small top-level
    tree over the chunk roots commits to the whole segment. Auditors can
    then verify one chunk ("slice") against the top root without reading
    any other chunk.

    Hashing is domain-separated to rule out leaf/node confusion:
    [leaf x = H (0x00 || x)] and [node l r = H (0x01 || l || r)]. The
    tree shape is the canonical unbalanced binary tree used by certificate
    transparency: a list of [n] leaves splits at [k], the largest power of
    two strictly less than [n] (so a left-complete tree), and the empty
    tree hashes to [H ("")]. The incremental builder and [root_of_leaves]
    agree on this shape for every [n]. *)

(** Hash of a single leaf payload: [H (0x00 || payload)]. *)
(* lint: public — one-way: a digest does not reveal its preimage *)
val leaf_hash : string -> string

(** Interior node hash: [H (0x01 || left || right)]. *)
(* lint: public *)
val node_hash : string -> string -> string  (* lint: allow unused-export — test_segment "domain separation" *)

(** Incremental builder: absorbs leaves one at a time keeping only the
    O(log n) frontier of complete-subtree peaks, so a segment writer can
    commit to millions of leaves in constant memory. *)
type builder

val create : unit -> builder

(** Absorb the next leaf payload (hashed with [leaf_hash] internally). *)
val add : builder -> string -> unit

(** Root over the leaves absorbed so far. Does not disturb the builder:
    more leaves may be added afterwards. *)
(* lint: public — a root is a hash commitment, not its preimages *)
val root : builder -> string

(** One-shot root of a list of leaf payloads. Equal to feeding them to a
    fresh builder in order. *)
(* lint: public *)
val root_of_leaves : string list -> string  (* lint: allow unused-export — reference root in test_segment *)

(** Authentication path for leaf [index] (0-based) among [leaves]:
    sibling hashes from the leaf up to the root, each tagged with the
    side the sibling sits on. *)
type step = L of string | R of string

(** [proof_of_hashes hs i] — authentication path for position [i] in the
    list of already-hashed leaves [hs]. Raises [Invalid_argument] if out
    of range. *)
(* lint: public — sibling digests only *)
val proof_of_hashes : string list -> int -> step list

(** [verify ~root ~leaf_digest path] — check that [leaf_digest] (an
    already-hashed leaf, e.g. a chunk root) folds up through [path] to
    [root]. The position is bound implicitly by the path's side tags. *)
val verify : root:string -> leaf_digest:string -> step list -> bool
