(** Deterministic generation of the plain ballot material (vote codes,
    receipts, salts, per-part shuffles, GF(256) receipt shares, msk)
    from a master seed. Every party derives identical values, enabling
    the virtual ballot store and exact replay. *)

type part_material = {
  perm : int array;         (** printed option [j] sits at position [perm.(j)] *)
  codes : string array;     (** by permuted position *)
  receipts : string array;
  salts : string array;
  hashes : string array;    (** SHA256(code || salt) *)
}

(** The salted hash a VC node validates a vote code against. *)
val code_hash : code:string -> salt:string -> string

val gen_part : seed:string -> serial:int -> part:Types.part_id -> m:int -> part_material

(** The ballot as printed for the voter (lines in option order). *)
val voter_ballot : seed:string -> serial:int -> m:int -> Types.ballot

(** All Nv receipt shares of one line (node [i] holds index [i]). *)
val receipt_shares :
  seed:string -> serial:int -> part:Types.part_id -> pos:int -> receipt:string ->
  threshold:int -> shares:int -> Dd_vss.Shamir_bytes.share array

(** Master vote-code encryption key material: the key, its salt, the
    public commitment [Hmsk = SHA256(msk || salt)], and the VC nodes'
    shares. *)
(* lint: secret *)
val msk : seed:string -> string
val msk_salt : seed:string -> string
val msk_commitment : seed:string -> string
(* lint: secret *)
val msk_shares : seed:string -> threshold:int -> shares:int -> Dd_vss.Shamir_bytes.share array

(** One VC node's validation lines for a ballot part (derived; no EA
    share tags — the full-crypto path gets those from {!Ea.setup_chunks}). *)
val vc_lines :
  seed:string -> cfg:Types.config -> serial:int -> part:Types.part_id -> node:int ->
  Types.vc_line array
