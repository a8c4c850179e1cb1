type t = {
  sv_cfg : Types.config;
  sv_gctx : Dd_group.Group_ctx.t;
  sv_keys : Auth.keys array;
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t option)) option;
  sv_trustees : (Auth.keys array * (int -> Ea.trustee_init)) option;
  sv_ballot_for : int -> Types.ballot;
  sv_verify_share_tags : bool;
  sv_coin : Dd_consensus.Binary_batch.coin;
  sv_seed : string;
}

let of_setup ?(coin = Dd_consensus.Binary_batch.Local) (s : Ea.setup) =
  { sv_cfg = s.Ea.cfg;
    sv_gctx = s.Ea.gctx;
    sv_keys = s.Ea.vc_keys;
    sv_store_for = (fun node -> Ballot_store.materialized s.Ea.vc_init.(node));
    sv_bb = Some (s.Ea.bb_init, fun (_ : int) -> None);
    sv_trustees = Some (s.Ea.trustee_keys, fun i -> s.Ea.trustee_init.(i));
    sv_ballot_for = (fun serial -> s.Ea.ballots.(serial));
    sv_verify_share_tags = true;
    sv_coin = coin;
    sv_seed = s.Ea.seed }

let prf ?(scheme = Auth.Schnorr_scheme) ?(coin = Dd_consensus.Binary_batch.Local) cfg ~seed =
  let gctx = Dd_group.Group_ctx.default () in
  { sv_cfg = cfg;
    sv_gctx = gctx;
    sv_keys =
      Auth.deal_clique ~scheme ~gctx ~seed:("vc-keys|" ^ seed) ~n:(cfg.Types.nv + 1);
    sv_store_for = (fun node -> Ballot_store.virtual_prf ~seed ~cfg ~node);
    sv_bb = None;
    sv_trustees = None;
    sv_ballot_for =
      (fun serial -> Ballot_gen.voter_ballot ~seed ~serial ~m:cfg.Types.m_options);
    sv_verify_share_tags = false;
    sv_coin = coin;
    sv_seed = seed }

let of_layout ~devices ?(coin = Dd_consensus.Binary_batch.Local) ?seed
    (layout : Election_store.layout) =
  let st = layout.Election_store.l_static in
  let cfg = st.Ea.st_cfg in
  (* the sealed static state does not retain the EA seed (a secret);
     the node RNG seed only drives timers and coin draws, so any
     per-deployment string works *)
  let seed =
    match seed with Some s -> s | None -> "serve|" ^ cfg.Types.election_id
  in
  let gctx = st.Ea.st_gctx in
  { sv_cfg = cfg;
    sv_gctx = gctx;
    sv_keys = st.Ea.st_vc_keys;
    sv_store_for =
      (fun node ->
         Ballot_store.segmented ~gctx ~cfg
           ~msk_share:st.Ea.st_msk_shares.(node)
           (devices (Election_store.vc_segment node))
           layout.Election_store.l_vc.(node));
    sv_bb =
      Some
        ( { Ea.hmsk = st.Ea.st_hmsk; Ea.salt_msk = st.Ea.st_salt_msk;
            Ea.bb_ballots = [||] },
          fun (_ : int) ->
            Some
              (Board.segmented gctx
                 (devices Election_store.bb_segment)
                 layout.Election_store.l_bb) );
    sv_trustees =
      Some (st.Ea.st_trustee_keys, Election_store.read_trustee_init devices layout);
    sv_ballot_for = Election_store.voter_ballot_reader devices layout;
    sv_verify_share_tags = true;
    sv_coin = coin;
    sv_seed = seed }
