(** Shared vocabulary of the D-DEMOS system: ballots, parts, election
    configuration, fault thresholds, and sizes (Section III-D). *)

(** The two functionally equivalent halves of a ballot. The unused one
    becomes the audit material. *)
type part_id = A | B

val part_index : part_id -> int

val part_label : part_id -> string
val other_part : part_id -> part_id

(** Election-wide parameters, with the paper's fault thresholds:
    [nv >= 3 fv + 1], [nb >= 2 fb + 1], and [ht]-of-[nt] trustees. *)
type config = {
  election_id : string;
  n_voters : int;
  m_options : int;
  nv : int;
  fv : int;
  nb : int;
  fb : int;
  nt : int;
  ht : int;
}

val validate_config : config -> (unit, string) result

(** 10 voters, 3 options, Nv=4/fv=1, Nb=3/fb=1, Nt=3/ht=2. *)
val default_config : config

(** Paper sizes: 160-bit vote codes, 64-bit receipts and salts, 128-bit
    master key. *)
val vote_code_bytes : int
val receipt_bytes : int
val salt_bytes : int
val msk_bytes : int

(** One printed ballot line: the vote code the voter submits and the
    receipt she expects back. *)
type ballot_line = {
  vote_code : string;
  receipt : string;
}

type ballot_part = {
  lines : ballot_line array;  (** indexed by option *)
}

type ballot = {
  serial : int;
  part_a : ballot_part;
  part_b : ballot_part;
}

val ballot_part : ballot -> part_id -> ballot_part

(** A VC node's per-line validation data (in permuted order). *)
type vc_line = {
  code_hash : string;   (** SHA256(vote_code || salt) *)
  salt : string;
  receipt_share : Dd_vss.Shamir_bytes.share;
  share_tag : Auth.tag option;  (** EA authenticator; [None] in modeled runs *)
}

(** Ballot status at a VC node (Algorithm 1). *)
type vc_status =
  | Not_voted
  | Pending of string
  | Voted of string * string  (** vote code, reconstructed receipt *)

type vote_outcome =
  | Receipt of string
  | Rejected of string

(** Per-option counts. *)
type tally = int array
