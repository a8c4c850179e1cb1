type t = {
  sv_cfg : Types.config;
  sv_keys : Auth.keys array;
  sv_store_for : int -> Ballot_store.t;
  sv_bb : (Ea.bb_init * (int -> Board.t)) option;
  sv_trustees : (Auth.keys array * (int -> Ea.trustee_init)) option;
  sv_ballot_for : int -> Types.ballot;
  sv_verify_share_tags : bool;
  sv_seed : string;
}

let prf ?(scheme = Auth.Schnorr_scheme) cfg ~seed =
  { sv_cfg = cfg;
    sv_keys =
      Auth.deal_clique ~scheme ~seed:("vc-keys|" ^ seed) ~n:(cfg.Types.nv + 1);
    sv_store_for = (fun node -> Ballot_store.virtual_prf ~seed ~cfg ~node);
    sv_bb = None;
    sv_trustees = None;
    sv_ballot_for =
      (fun serial -> Ballot_gen.voter_ballot ~seed ~serial ~m:cfg.Types.m_options);
    sv_verify_share_tags = false;
    sv_seed = seed }

let of_layout ~devices (layout : Election_store.layout) =
  let st = layout.Election_store.l_static in
  let cfg = st.Ea.st_cfg in
  { sv_cfg = cfg;
    sv_keys = st.Ea.st_vc_keys;
    sv_store_for =
      (fun node ->
         Ballot_store.segmented ~cfg
           ~msk_share:st.Ea.st_msk_shares.(node)
           (devices (Election_store.vc_segment node))
           layout.Election_store.l_vc.(node));
    sv_bb =
      Some
        ( { Ea.hmsk = st.Ea.st_hmsk; Ea.salt_msk = st.Ea.st_salt_msk },
          fun (_ : int) ->
            Board.create (devices Election_store.bb_segment)
              layout.Election_store.l_bb );
    sv_trustees =
      Some (st.Ea.st_trustee_keys, Election_store.read_trustee_init devices layout);
    sv_ballot_for = Election_store.voter_ballot_reader devices layout;
    sv_verify_share_tags = true;
    (* no node is seeded from an EA secret: the node RNG seed only
       drives timers and coin draws, so a public per-election string
       works *)
    sv_seed = "serve|" ^ cfg.Types.election_id }

(* Every node reads its own sealed segment, as in the paper, where the
   EA writes each node's initialization data into that node's store;
   here the store is a family of in-memory devices. *)
let of_setup (s : Ea.setup) =
  let backings = Hashtbl.create 16 in
  let devices name =
    let b =
      match Hashtbl.find_opt backings name with
      | Some b -> b
      | None ->
        let b = Dd_store.Device.Mem.create () in
        Hashtbl.add backings name b;
        b
    in
    Dd_store.Device.Mem.device b
  in
  (* lint: allow secret-taint the layout is tainted as a whole by its msk shares, which of_layout hands each to its own collector's store; the flagged comparisons are segment readers checking public manifest roots and lengths *)
  of_layout ~devices (Election_store.store_setup devices s)
