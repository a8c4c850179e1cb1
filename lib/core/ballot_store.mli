(** A VC node's validation view of the election data: per ballot line
    the salted vote-code hash and this node's receipt share, plus the
    node's msk share.

    [segmented] serves real EA initialization data from a sealed
    segment; [virtual_prf] derives everything on demand from the setup
    seed with a bounded cache, standing in for the prototype's
    PostgreSQL table so that experiments can register hundreds of
    millions of ballots. *)

type t

(** Serve this node's line table from a sealed ["vc-<i>"] segment
    (see {!Election_store}) through a {!Dd_segment.Segment.Cache} LRU
    of its default size. *)
val segmented :
  cfg:Types.config -> msk_share:Dd_vss.Shamir_bytes.share ->
  Dd_store.Device.t -> Dd_segment.Segment.manifest -> t

val virtual_prf : seed:string -> cfg:Types.config -> node:int -> t

(** The permuted line array of one ballot part; [[||]] for an unknown
    serial. *)
val lines : t -> serial:int -> part:Types.part_id -> Types.vc_line array

val msk_share : t -> Dd_vss.Shamir_bytes.share

(** Whether the lines carry the EA's tags over their receipt shares:
    a sealed segment's do ({!segmented}); {!virtual_prf}'s, modeled
    without EA tags, do not, and a collector then accepts a disclosed
    share on its shape alone. *)
val share_tags : t -> bool

(** Algorithm 1's VerifyVoteCode: scan both parts' salted hashes for
    the code; returns its (part, position, line) or [None]. *)
val verify_vote_code :
  t -> serial:int -> vote_code:string -> (Types.part_id * int * Types.vc_line) option
