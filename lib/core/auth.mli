(** Inter-node message authentication, dealt by the EA at setup.

    Two interchangeable schemes: [Schnorr_scheme] — real public-key
    signatures (publicly verifiable, what the paper's PKI provides) —
    and [Mac_scheme] — pairwise-HMAC authenticator vectors, the classic
    PBFT optimization used by the large-scale simulations. *)

type scheme =
  | Schnorr_scheme
  | Mac_scheme

type tag =
  | Schnorr_tag of Dd_sig.Schnorr.signature
  | Mac_tag of string array  (** one HMAC per potential verifier *)

(** One node's credentials within a clique. *)
type keys = {
  scheme : scheme;
  me : int;
  sk : Dd_sig.Schnorr.secret_key;
  pks : Dd_sig.Schnorr.public_key array;
  pk_tables : Dd_sig.Schnorr.pk_table Dd_parallel.Once.t array;
      (** per-signer comb tables; built on first Schnorr verify
          (race-safe once cells — any domain may force them) *)
  pk_pre : Dd_sig.Schnorr.pk_table Dd_parallel.Once.t array;
      (** the same cells as [pk_tables]. Nothing here reads it: it
          stays only because perfbench's table warm-up forces it *)
  mac_keys : string array;
  rng : Dd_crypto.Drbg.t;
}

(** Deal a clique of [n] mutually-authenticating nodes from a seed
    (deterministic: every party derives a consistent view). In D-DEMOS
    the last index is the EA itself. *)
val deal_clique :
  scheme:scheme -> seed:string -> n:int -> keys array

(** [sign ?rng k msg]. [?rng] substitutes a caller-owned DRBG for the
    node's own nonce stream — parallel setup passes per-ballot forked
    streams so output is independent of scheduling. *)
val sign : ?rng:Dd_crypto.Drbg.t -> keys -> string -> tag

(** {!sign} in two halves, for a signer that batches its nonce
    commitments: [draw_nonce ~rng k] draws the Schnorr nonce exactly as
    [sign ~rng] would ([None] under [Mac_scheme], which draws nothing),
    and [sign_prepared k ~nonce:(Some (n, r)) msg] finishes the tag given
    [r = n*G] in affine form. Under [Mac_scheme] it is {!sign}. Raises
    [Invalid_argument] on a Schnorr key without a nonce. *)
val draw_nonce : rng:Dd_crypto.Drbg.t -> keys -> Dd_bignum.Nat.t option

val sign_prepared :
  keys -> nonce:(Dd_bignum.Nat.t * Dd_group.Curve.point) option -> string -> tag

(** [verify k ~signer msg tag]: does [tag] authenticate [msg] from
    [signer], as seen by node [k.me]? Cross-scheme tags never verify. *)
val verify : keys -> signer:int -> string -> tag -> bool

(** Verify many [(signer, msg, tag)] triples at once. Schnorr tags
    fold into one randomized batch verification (soundness 2^-128 per
    batch; the UCERT validation hot path); MAC tags are checked
    serially. Any invalid signer index or cross-scheme tag fails the
    batch. *)
val verify_batch : keys -> (int * string * tag) list -> bool
