(* Shared vocabulary of the D-DEMOS system. *)

type part_id = A | B

let part_index = function A -> 0 | B -> 1
let part_label = function A -> "A" | B -> "B"
let other_part = function A -> B | B -> A

(* Election-wide parameters. Fault thresholds follow the paper:
   Nv >= 3 fv + 1, Nb >= 2 fb + 1, and ht-out-of-Nt trustees. *)
type config = {
  election_id : string;
  n_voters : int;
  m_options : int;
  nv : int;   (* vote collectors *)
  fv : int;
  nb : int;   (* bulletin board nodes *)
  fb : int;
  nt : int;   (* trustees *)
  ht : int;   (* honest-trustee reconstruction threshold *)
}

let validate_config c =
  if c.n_voters < 1 then Error "need at least one voter"
  else if c.m_options < 2 then Error "need at least two options"
  else if c.nv < 3 * c.fv + 1 then Error "need Nv >= 3 fv + 1"
  else if c.nb < 2 * c.fb + 1 then Error "need Nb >= 2 fb + 1"
  else if c.ht < 1 || c.ht > c.nt then Error "need 1 <= ht <= Nt"
  else Ok ()

let default_config =
  { election_id = "d-demos-election";
    n_voters = 10;
    m_options = 3;
    nv = 4; fv = 1;
    nb = 3; fb = 1;
    nt = 3; ht = 2 }

(* Sizes from the paper: 64-bit serial numbers and receipts, 160-bit
   vote codes, 64-bit salts, 128-bit msk. We index serials densely
   0 .. n-1 for array-backed stores; the printable serial is a 64-bit
   string derived from the index. *)
let vote_code_bytes = 20
let receipt_bytes = 8
let salt_bytes = 8
let msk_bytes = 16

(* One printed ballot line as the voter sees it: for option j of the
   part, its vote code and the receipt the VC subsystem will return. *)
type ballot_line = {
  vote_code : string;
  receipt : string;
}

type ballot_part = {
  (* indexed by option: line j belongs to option j on the printed
     ballot; the BB/VC views are permuted (see Ea). *)
  lines : ballot_line array;
}

type ballot = {
  serial : int;
  part_a : ballot_part;
  part_b : ballot_part;
}

let ballot_part ballot = function A -> ballot.part_a | B -> ballot.part_b

(* What the VC subsystem stores per ballot line (in permuted order):
   the salted hash that validates a vote code without revealing it,
   and this node's share of the receipt. *)
type vc_line = {
  code_hash : string;     (* SHA256(vote_code || salt) *)
  salt : string;
  receipt_share : Dd_vss.Shamir_bytes.share;
  share_tag : Auth.tag option;  (* EA authenticator over the share; None in modeled runs *)
}

(* Status of a ballot at a VC node (Algorithm 1). *)
type vc_status =
  | Not_voted
  | Pending of string   (* vote code under endorsement / share collection *)
  | Voted of string * string  (* vote code, reconstructed receipt *)

(* The outcome the voter observes. *)
type vote_outcome =
  | Receipt of string
  | Rejected of string   (* reason *)

(* Final agreed tally entry. *)
type tally = int array  (* per-option counts *)
