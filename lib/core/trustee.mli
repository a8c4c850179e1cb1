(** Trustee (Section III-H): posts opening shares for unused ballot
    parts, jointly finishes the used parts' ballot-correctness ZK
    proofs from the EA's VSS-shared prover states, and contributes one
    verifiable opening share of the homomorphic tally total Esum. *)

(** Trustee-to-trustee exchange of ZK prover-state shares. *)
type exchange = {
  ex_from : int;
  ex_entries : (int * Types.part_id * Dd_vss.Shamir_bytes.share * Auth.tag) list;
}

type env = {
  me : int;
  cfg : Types.config;
  gctx : Dd_group.Group_ctx.t;
      (** unused; perfbench builds this record with one *)
  init : Ea.trustee_init;
  keys : Auth.keys;    (** trustee clique; index [nt] is the EA *)
  send_trustee : dst:int -> exchange -> unit;
  post_bb : Trustee_payload.t -> unit;  (** broadcast to every BB node *)
  durable : Dd_store.Device.t option;
      (** input journal device; [None] runs the trustee memory-only *)
}

type t

(** The trustee [env.durable]'s journal describes, journaling to it
    from then on: fresh on an absent or empty device, otherwise a cold
    restart that replays the journaled inputs through the handlers.
    Replay re-posts to the BBs and re-sends peer exchanges on purpose
    (the crash may have swallowed the originals); receivers dedupe. *)
val create : env -> t

(** Canonical encoding of the trustee's state (sorted, deterministic),
    for recovery-equivalence checks. *)
(* lint: allow unused-export — test_storage compares replayed state *)
val observable : t -> string

(** Entry point once the BB majority has published the final set and
    opened the codes: [voted] maps each cast serial to its located
    (part, position). Idempotent. *)
val on_election_data : t -> voted:(int * (Types.part_id * int)) list -> unit

(** Feed a peer's state-share exchange (shares are EA-authenticated, so
    Byzantine trustees cannot inject corrupt shares). *)
val on_exchange : t -> exchange -> unit
