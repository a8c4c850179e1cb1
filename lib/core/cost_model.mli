(** Service-time model for the simulated evaluation, calibrated to the
    paper's 2012-era testbed (see the .ml header and EXPERIMENTS.md for
    the calibration story; `bench/main.exe micro` reports this
    machine's true kernel costs next to the model). *)

type t = {
  msg_overhead : float;
  http_request : float;
  hash_verify : float;
  sig_sign : float;
  sig_verify : float;
  share_verify : float;
  ballot_lookup_mem : float;
  disk_enabled : bool;
  disk_base : float;
  disk_scale : float;
  disk_alpha : float;
  disk_ref_n : float;
  consensus_step : float;
  announce_entry : float;
  aes_block : float;
  zk_finalize_row : float;
  zk_state_reconstruct : float;
  commit_add : float;
  share_sum : float;
  bb_verify_set : float;
}

val default : t

(** Enable the PostgreSQL-style disk cost (figures 5a-5c). *)
val with_disk : t -> t

(** Aggregate handler costs per protocol step. *)
val vote_validate : t -> n:int -> m:int -> float
val endorse_handle : t -> n:int -> m:int -> float
val ucert_verify : t -> quorum:int -> float
val vote_p_handle : t -> n:int -> m:int -> quorum:int -> float
