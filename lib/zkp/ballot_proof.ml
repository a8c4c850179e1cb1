(* The ballot-correctness proof of D-DEMOS: for one ballot part holding
   m lifted-ElGamal commitments, prove that every commitment encrypts 0
   or 1 (Sigma-OR of two Chaum-Pedersen statements per commitment) and
   that the coordinates sum to exactly 1 (one Chaum-Pedersen proof on
   the homomorphic sum). Together these show the part commits to a unit
   vector, so a malicious EA cannot stuff "9000 votes for option 1"
   into a single commitment.

   The proof is a 3-move protocol split across the election timeline:
   - setup: the EA publishes [first_move] on the BB and secret-shares
     the serialized [prover_state] among the trustees;
   - election: the voters' A/B choices are collected as coins and
     hashed into the [challenge];
   - post-election: trustees reconstruct the state, compute [final_move]
     and publish it; anyone verifies. *)

module Sc = Dd_bignum.Sc
module Group_ctx = Dd_group.Group_ctx
module Curve = Dd_group.Curve
module Elgamal = Dd_commit.Elgamal

type or_state = {
  branch : int;       (* the true message, 0 or 1 *)
  w : Sc.t;          (* nonce of the real branch *)
  c_sim : Sc.t;      (* pre-chosen challenge of the simulated branch *)
  z_sim : Sc.t;      (* pre-chosen response of the simulated branch *)
  witness : Sc.t;    (* the commitment randomness r *)
}

type prover_state = {
  rows : or_state array;     (* one per option commitment *)
  sum_w : Sc.t;             (* nonce of the sum proof *)
  sum_witness : Sc.t;       (* sum of the commitment randomness *)
}

type or_first_move = {
  a0 : Chaum_pedersen.first_move;  (* branch "encrypts 0" *)
  a1 : Chaum_pedersen.first_move;  (* branch "encrypts 1" *)
}

type first_move = {
  row_moves : or_first_move array;
  sum_move : Chaum_pedersen.first_move;
}

type or_final = {
  c0 : Sc.t;
  c1 : Sc.t;
  z0 : Sc.t;
  z1 : Sc.t;
}

type final_move = {
  row_finals : or_final array;
  sum_z : Sc.t;
}

(* The two Chaum-Pedersen statements for commitment (c1, c2):
   branch 0 claims (c1, c2) = (r*G, r*H);
   branch 1 claims (c1, c2 - G) = (r*G, r*H). *)
let branch_statement commitment branch : Chaum_pedersen.statement =
  let c1, c2 = Elgamal.components commitment in
  let h2 = if branch = 0 then c2 else Curve.sub c2 Group_ctx.g in
  { g1 = Group_ctx.g; g2 = Group_ctx.h; h1 = c1; h2 }

(* The sum statement: the coordinates total exactly [k], so
   c2 - k*G = R*H. The paper's single-choice elections use k = 1; the
   k-out-of-m extension sketched in its conclusion reuses the same
   proof with larger k. *)
let sum_statement ?(k = 1) (commitments : Elgamal.t array) : Chaum_pedersen.statement =
  let total = Elgamal.sum (Array.to_list commitments) in
  let c1, c2 = Elgamal.components total in
  { g1 = Group_ctx.g; g2 = Group_ctx.h; h1 = c1;
    h2 = Curve.sub c2 (Group_ctx.mul_g (Sc.of_int k)) }

(* The simulated first move (t = z*g - c*h on each base) of the branch
   that [opening] does not satisfy, for challenge c and response z,
   computed from the witness instead of the statement. That branch claims
   h1 = r*G and h2 = (2b-1)*G + r*H (b the committed bit), so
   t1 = z*G - c*h1 = (z - c*r)*G and
   t2 = z*H - c*h2 = (z - c*r)*H + c*(1-2b)*G:
   fixed-base comb jobs only. The coefficient c*(1-2b) comes from
   scalar arithmetic, so the group operations are the same for either
   bit. *)
let simulated_jobs (o : Elgamal.opening) ~challenge ~response =
  let g = Group_ctx.g_table () and h = Group_ctx.h_table () in
  let s = Sc.sub response (Sc.mul challenge o.Elgamal.rand) in
  let sign = Sc.sub Sc.one (Sc.add o.Elgamal.msg o.Elgamal.msg) in
  ([ (g, s) ], [ (h, s); (g, Sc.mul challenge sign) ])

(* Draw the prover's randomness for a ballot part: per row the real
   branch's nonce w, then the simulated branch's challenge and response,
   then the sum proof's nonce. The openings must commit to a unit vector (this is
   the honest-prover path; EA misbehaviour is exactly what verification
   later catches). *)
let draw_state rng ~(openings : Elgamal.opening array) =
  let rows =
    Array.map
      (fun (o : Elgamal.opening) ->
         let branch = Sc.to_int o.Elgamal.msg in
         if branch <> 0 && branch <> 1 then
           invalid_arg "Ballot_proof.prove_commit: message not 0/1";
         let w = Curve.random_scalar rng in
         let c_sim = Curve.random_scalar rng in
         let z_sim = Curve.random_scalar rng in
         { branch; w; c_sim; z_sim; witness = o.Elgamal.rand })
      openings
  in
  let sum_witness =
    Array.fold_left (fun acc o -> Sc.add acc o.Elgamal.rand) Sc.zero openings
  in
  { rows; sum_w = Curve.random_scalar rng; sum_witness }

(* The first move's points as comb jobs: per row a0.t1, a0.t2, a1.t1,
   a1.t2 (the real branch w*G, w*H; the simulated one from
   [simulated_jobs]), then the sum move's w*G, w*H. The statements are
   not needed: a Chaum-Pedersen first move reads only the bases. *)
let first_move_jobs (st : prover_state) (openings : Elgamal.opening array) =
  let g = Group_ctx.g_table () and h = Group_ctx.h_table () in
  let rows =
    Array.mapi
      (fun i r ->
         let real = [ [ (g, r.w) ]; [ (h, r.w) ] ] in
         let s1, s2 =
           simulated_jobs openings.(i) ~challenge:r.c_sim ~response:r.z_sim
         in
         if r.branch = 0 then real @ [ s1; s2 ] else [ s1; s2 ] @ real)
      st.rows
  in
  Array.of_list (List.concat (Array.to_list rows) @ [ [ (g, st.sum_w) ]; [ (h, st.sum_w) ] ])

let first_move_of_points (pts : Curve.point array) =
  let cp i = { Chaum_pedersen.t1 = pts.(i); Chaum_pedersen.t2 = pts.(i + 1) } in
  let rows = (Array.length pts - 2) / 4 in
  { row_moves = Array.init rows (fun r -> { a0 = cp (4 * r); a1 = cp ((4 * r) + 2) });
    sum_move = cp (4 * rows) }

let first_move_points (fm : first_move) =
  let cp (m : Chaum_pedersen.first_move) = [ m.t1; m.t2 ] in
  Array.of_list
    (List.concat_map (fun r -> cp r.a0 @ cp r.a1) (Array.to_list fm.row_moves)
     @ cp fm.sum_move)

let prove_commit rng ~(commitments : Elgamal.t array)
    ~(openings : Elgamal.opening array) =
  if Array.length commitments <> Array.length openings then
    invalid_arg "Ballot_proof.prove_commit: arity mismatch";
  let st = draw_state rng ~openings in
  (st, first_move_of_points (Curve.mul_base_batch (first_move_jobs st openings)))

(* Third move, given the challenge extracted from the voters' coins. *)
let finalize (state : prover_state) ~challenge : final_move =
  let row_finals =
    Array.map
      (fun st ->
         let c_real = Sc.sub challenge st.c_sim in
         let z_real =
           Chaum_pedersen.respond ~state:st.w ~witness:st.witness ~challenge:c_real
         in
         if st.branch = 0 then { c0 = c_real; c1 = st.c_sim; z0 = z_real; z1 = st.z_sim }
         else { c0 = st.c_sim; c1 = c_real; z0 = st.z_sim; z1 = z_real })
      state.rows
  in
  { row_finals;
    sum_z = Chaum_pedersen.respond ~state:state.sum_w ~witness:state.sum_witness ~challenge }

(* One ballot part's complete proof transcript. *)
type instance = {
  commitments : Elgamal.t array;
  fm : first_move;
  challenge : Sc.t;
  fin : final_move;
}

(* Every check of one part's proof: the arities and each row's
   c0 + c1 = challenge are scalar checks, returned; the Chaum-Pedersen
   equations (per row a0's two, then a1's, then the sum proof's) go to
   [sink]. A part whose arities are off sends no equation. *)
let check ~k sink inst =
  let n = Array.length inst.commitments in
  Array.length inst.fm.row_moves = n
  && Array.length inst.fin.row_finals = n
  && begin
    let ok = ref true in
    let cp stmt fm challenge response =
      Chaum_pedersen.equations sink { stmt; fm; challenge; response }
    in
    Array.iteri
      (fun i c ->
         let m = inst.fm.row_moves.(i) and f = inst.fin.row_finals.(i) in
         if not (Sc.equal (Sc.add f.c0 f.c1) inst.challenge) then
           ok := false;
         cp (branch_statement c 0) m.a0 f.c0 f.z0;
         cp (branch_statement c 1) m.a1 f.c1 f.z1)
      inst.commitments;
    cp (sum_statement ~k inst.commitments) inst.fm.sum_move inst.challenge inst.fin.sum_z;
    !ok
  end

let verify ?(k = 1) ~commitments fm ~challenge fin =
  let sink = Group_ctx.serial () in
  check ~k sink { commitments; fm; challenge; fin } && Group_ctx.verdict sink

(* Batch-verify many ballot parts: the scalar checks stay serial — they
   are cheap — while every Chaum-Pedersen equation of every part folds
   into one shared MSM accumulator. An election with v ballots of m
   options turns v*(2m+1) proof verifications (each two curve
   multiplications plus an add) into one MSM. Soundness 2^-128 per
   batch. *)
let verify_batch ?(k = 1) rng (instances : instance array) =
  match Array.length instances with
  | 0 -> true
  | 1 ->
    let i = instances.(0) in
    verify ~k ~commitments:i.commitments i.fm ~challenge:i.challenge i.fin
  | _ ->
    let sink = Group_ctx.folded rng in
    let ok = Array.fold_left (fun ok inst -> check ~k sink inst && ok) true instances in
    ok && Group_ctx.verdict sink

(* --- serialization -------------------------------------------------- *)
(* Fixed-width scalar encoding: states travel from the EA to the
   trustees as VSS-shared byte strings, and moves live on the BB. *)

let scalar_len = 32

let put_scalar buf n = Buffer.add_string buf (Sc.to_bytes n)

(* The prover state comes from the EA's own sealing: lenient, reduced. *)
let get_scalar s off = (Sc.of_bytes_mod (String.sub s off scalar_len), off + scalar_len)

let encode_state (st : prover_state) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%04d" (Array.length st.rows));
  Array.iter
    (fun r ->
       Buffer.add_char buf (if r.branch = 0 then '0' else '1');
       put_scalar buf r.w;
       put_scalar buf r.c_sim;
       put_scalar buf r.z_sim;
       put_scalar buf r.witness)
    st.rows;
  put_scalar buf st.sum_w;
  put_scalar buf st.sum_witness;
  Buffer.contents buf

let decode_state s =
  try
    let rows_len = int_of_string (String.sub s 0 4) in
    let off = ref 4 in
    let rows =
      Array.init rows_len (fun _ ->
          let branch = if s.[!off] = '0' then 0 else 1 in
          incr off;
          let w, o = get_scalar s !off in
          let c_sim, o = get_scalar s o in
          let z_sim, o = get_scalar s o in
          let witness, o = get_scalar s o in
          off := o;
          { branch; w; c_sim; z_sim; witness })
    in
    let sum_w, o = get_scalar s !off in
    let sum_witness, o = get_scalar s o in
    if o <> String.length s then None
    else Some { rows; sum_w; sum_witness }
  with _ -> None

let encode_first_move (fm : first_move) =
  let buf = Buffer.create 512 in
  let add_cp (m : Chaum_pedersen.first_move) =
    Buffer.add_string buf (Curve.encode m.t1);
    Buffer.add_string buf (Curve.encode m.t2)
  in
  Array.iter (fun m -> add_cp m.a0; add_cp m.a1) fm.row_moves;
  add_cp fm.sum_move;
  Buffer.contents buf

(* Inverse of [encode_first_move]: point encodings are self-delimiting
   (leading 0x00 = infinity, one byte; otherwise 0x04 || X || Y), so
   the stream is walked point by point. 4 points per OR row plus the 2
   sum-move points fix the row count. *)
let decode_first_move s =
  let bl = Curve.byte_len in
  let n = String.length s in
  let rec points off acc =
    if off = n then Some (List.rev acc)
    else begin
      let len = if s.[off] = '\x00' then 1 else 1 + (2 * bl) in
      if off + len > n then None
      else
        match Curve.decode (String.sub s off len) with
        | None -> None
        | Some p -> points (off + len) (p :: acc)
    end
  in
  match points 0 [] with
  | None -> None
  | Some pts ->
      let count = List.length pts in
      if count < 2 || (count - 2) mod 4 <> 0 then None
      else begin
        let pts = Array.of_list pts in
        let rows = (count - 2) / 4 in
        let cp i =
          { Chaum_pedersen.t1 = pts.(i); Chaum_pedersen.t2 = pts.(i + 1) }
        in
        let row_moves =
          Array.init rows (fun r -> { a0 = cp (4 * r); a1 = cp ((4 * r) + 2) })
        in
        Some { row_moves; sum_move = cp (4 * rows) }
      end

let encode_final_move (fin : final_move) =
  let buf = Buffer.create 256 in
  Array.iter
    (fun f -> put_scalar buf f.c0; put_scalar buf f.c1; put_scalar buf f.z0; put_scalar buf f.z1)
    fin.row_finals;
  put_scalar buf fin.sum_z;
  Buffer.contents buf

(* The moves come off the BB, so every scalar must be canonical. *)
let get_canonical s off =
  match Sc.of_bytes (String.sub s off scalar_len) with
  | Some k -> (k, off + scalar_len)
  | None -> raise Exit

let decode_final_move s =
  let n = String.length s in
  let row_len = 4 * scalar_len in
  if n < scalar_len || (n - scalar_len) mod row_len <> 0 then None
  else begin
    let rows = (n - scalar_len) / row_len in
    let off = ref 0 in
    try
      let row_finals =
        Array.init rows (fun _ ->
            let c0, o = get_canonical s !off in
            let c1, o = get_canonical s o in
            let z0, o = get_canonical s o in
            let z1, o = get_canonical s o in
            off := o;
            { c0; c1; z0; z1 })
      in
      let sum_z, _ = get_canonical s !off in
      Some { row_finals; sum_z }
    with Exit -> None
  end
