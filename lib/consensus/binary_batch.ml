(* Bracha's asynchronous binary consensus (local coin), batched over an
   arbitrary number of slots as the paper's prototype does for Vote Set
   Consensus: one protocol instance decides every ballot at once, with
   each message carrying a per-slot value vector.

   Each round has three steps, all carried by reliable broadcast:
     step 1: broadcast estimate; at n-f received, adopt the majority.
     step 2: broadcast the majority; a value counts only when justified
             by f+1 step-1 messages carrying it (so a Byzantine node
             cannot inject a value no honest node could have computed).
             At n-f validated, if > n/2 senders agree on w the node
             suggests deciding w, else suggests bottom.
     step 3: broadcast the suggestion; a non-bottom suggestion counts
             only when justified by > n/2 validated step-2 messages.
             At n-f validated: 2f+1 suggestions for w decide w, f+1
             adopt w as the new estimate, otherwise flip a local coin.

   Safety sketch for n >= 3f+1 (RBC makes every sender single-valued
   per step): two different step-2 suggestions would need > n/2 senders
   each, impossible; a decision by 2f+1 suggestions overlaps every
   other honest node's n-f validated set in >= f+1 senders, so everyone
   adopts the decided value and decides at the next round. If all
   honest nodes start unanimous, no other value can ever be justified
   and the first round decides. *)

type coin = Local | Common of string  (* Common: deterministic shared seed *)

type round_state = {
  (* step 1 *)
  s1_senders : (int, int array) Hashtbl.t;        (* sender -> per-slot 0/1 *)
  s1_count : int array array;                     (* slot -> value -> senders *)
  mutable s1_processed : bool;
  (* step 2 *)
  s2_senders : (int, int array) Hashtbl.t;
  s2_valid : int array array;                     (* slot -> value -> validated senders *)
  s2_valid_total : int array;                     (* slot -> validated senders *)
  mutable s2_pending : (int * int array) list;    (* (sender, vals) awaiting justification *)
  s2_validated : (int, bool array) Hashtbl.t;     (* sender -> per-slot validated flag *)
  mutable s2_processed : bool;
  (* step 3: values 0, 1, or 2 = bottom *)
  s3_senders : (int, int array) Hashtbl.t;
  s3_valid : int array array;                     (* slot -> value(0..2) -> validated *)
  s3_valid_total : int array;
  s3_validated : (int, bool array) Hashtbl.t;
  mutable s3_processed : bool;
}

type t = {
  n : int;
  f : int;
  me : int;
  slots : int;
  coin : coin;
  rng : Dd_crypto.Drbg.t;
  broadcast : string -> unit;          (* RBC-broadcast a payload from me *)
  on_decide : int -> bool -> unit;
  mutable est : int array;             (* current per-slot estimate *)
  decided : bool option array;
  mutable n_decided : int;
  mutable round : int;                 (* current round, from 1 *)
  mutable step : int;                  (* 1, 2 or 3: the step we are collecting *)
  rounds : (int, round_state) Hashtbl.t;
  mutable halted : bool;
  mutable all_decided_round : int option;
}

let fresh_round t =
  { s1_senders = Hashtbl.create (t.n * 2);
    s1_count = Array.init t.slots (fun _ -> Array.make 2 0);
    s1_processed = false;
    s2_senders = Hashtbl.create (t.n * 2);
    s2_valid = Array.init t.slots (fun _ -> Array.make 2 0);
    s2_valid_total = Array.make t.slots 0;
    s2_pending = [];
    s2_validated = Hashtbl.create (t.n * 2);
    s2_processed = false;
    s3_senders = Hashtbl.create (t.n * 2);
    s3_valid = Array.init t.slots (fun _ -> Array.make 3 0);
    s3_valid_total = Array.make t.slots 0;
    s3_validated = Hashtbl.create (t.n * 2);
    s3_processed = false }

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some st -> st
  | None ->
    let st = fresh_round t in
    Hashtbl.replace t.rounds r st;
    st

let create ~n ~f ~me ~slots ~initial ~coin ~rng ~broadcast ~on_decide =
  (* lint: allow exception-hygiene — constructor precondition on local config, not peer input *)
  if n < 3 * f + 1 then invalid_arg "Binary_batch.create: need n >= 3f+1";
  (* lint: allow exception-hygiene — constructor precondition on local config, not peer input *)
  if Array.length initial <> slots then invalid_arg "Binary_batch.create: initial arity";
  { n; f; me; slots; coin; rng; broadcast; on_decide;
    est = Array.map (fun b -> if b then 1 else 0) initial;
    decided = Array.make slots None;
    n_decided = 0;
    round = 1;
    step = 1;
    rounds = Hashtbl.create 8;
    halted = false;
    all_decided_round = None }

(* --- message encoding: round, step, then 2 bits per slot ------------- *)

let encode_payload ~round ~step vals =
  let w = Dd_codec.Wire.writer () in
  Dd_codec.Wire.put_varint w round;
  Dd_codec.Wire.put_varint w step;
  Dd_codec.Wire.put_varint w (Array.length vals);
  let bits = Bytes.make ((Array.length vals + 3) / 4) '\000' in
  Array.iteri
    (fun i v ->
       let byte = i / 4 and off = 2 * (i mod 4) in
       Bytes.set bits byte (Char.chr (Char.code (Bytes.get bits byte) lor (v lsl off))))
    vals;
  Dd_codec.Wire.put_bytes w (Bytes.unsafe_to_string bits);
  Dd_codec.Wire.contents w

let decode_payload s =
  Dd_codec.Wire.decode s (fun r ->
      let round = Dd_codec.Wire.get_varint r in
      let step = Dd_codec.Wire.get_varint r in
      let len = Dd_codec.Wire.get_varint r in
      let bits = Dd_codec.Wire.get_bytes r in
      if String.length bits <> (len + 3) / 4 then
        raise (Dd_codec.Wire.Malformed "binary_batch: bitmap length");
      let vals =
        Array.init len (fun i -> (Char.code bits.[i / 4] lsr (2 * (i mod 4))) land 3)
      in
      (round, step, vals))

let send_step t ~step vals = t.broadcast (encode_payload ~round:t.round ~step vals)

let start t = send_step t ~step:1 t.est

let decided t = Array.copy t.decided
let all_decided t = t.n_decided = t.slots

let coin_flip t ~round ~slot =
  match t.coin with
  | Local -> if Dd_crypto.Drbg.bool t.rng then 1 else 0
  | Common seed ->
    let h =
      Dd_crypto.Sha256.digest_list [ "bb-coin"; seed; string_of_int round; string_of_int slot ]
    in
    Char.code h.[0] land 1

(* Validation triggers: when step-1 counts change, re-examine the
   pending step-2 entries; step-3 validation keys off step-2 validated
   counts. *)
let revalidate_s2 t (st : round_state) =
  let still_pending = ref [] in
  List.iter
    (fun (sender, vals) ->
       let flags =
         match Hashtbl.find_opt st.s2_validated sender with
         | Some fl -> fl
         | None ->
           let fl = Array.make t.slots false in
           Hashtbl.replace st.s2_validated sender fl;
           fl
       in
       let remaining = ref false in
       Array.iteri
         (fun slot v ->
            if not flags.(slot) then begin
              if v <= 1 && st.s1_count.(slot).(v) >= t.f + 1 then begin
                flags.(slot) <- true;
                st.s2_valid.(slot).(v) <- st.s2_valid.(slot).(v) + 1;
                st.s2_valid_total.(slot) <- st.s2_valid_total.(slot) + 1
              end else remaining := true
            end)
         vals;
       if !remaining then still_pending := (sender, vals) :: !still_pending)
    st.s2_pending;
  st.s2_pending <- !still_pending

let revalidate_s3 t (st : round_state) =
  let majority = t.n / 2 + 1 in
  Hashtbl.iter
    (fun sender vals ->
       let flags =
         match Hashtbl.find_opt st.s3_validated sender with
         | Some fl -> fl
         | None ->
           let fl = Array.make t.slots false in
           Hashtbl.replace st.s3_validated sender fl;
           fl
       in
       Array.iteri
         (fun slot v ->
            if not flags.(slot) then begin
              let justified = v = 2 || (v <= 1 && st.s2_valid.(slot).(v) >= majority) in
              if justified then begin
                flags.(slot) <- true;
                st.s3_valid.(slot).(v) <- st.s3_valid.(slot).(v) + 1;
                st.s3_valid_total.(slot) <- st.s3_valid_total.(slot) + 1
              end
            end)
         vals)
    st.s3_senders

let min_over_slots arr =
  Array.fold_left min max_int arr

(* Advance through steps/rounds as far as the received evidence allows. *)
let rec try_progress t =
  if not t.halted then begin
    let st = round_state t t.round in
    match t.step with
    | 1 ->
      if (not st.s1_processed) && Hashtbl.length st.s1_senders >= t.n - t.f then begin
        st.s1_processed <- true;
        (* adopt per-slot majority of the received estimates *)
        for slot = 0 to t.slots - 1 do
          t.est.(slot) <- if st.s1_count.(slot).(1) > st.s1_count.(slot).(0) then 1 else 0
        done;
        t.step <- 2;
        send_step t ~step:2 t.est;
        revalidate_s2 t st;
        revalidate_s3 t st;
        try_progress t
      end
    | 2 ->
      if (not st.s2_processed) && min_over_slots st.s2_valid_total >= t.n - t.f then begin
        st.s2_processed <- true;
        let majority = t.n / 2 + 1 in
        let suggestion =
          Array.init t.slots (fun slot ->
              if st.s2_valid.(slot).(1) >= majority then 1
              else if st.s2_valid.(slot).(0) >= majority then 0
              else 2)
        in
        t.step <- 3;
        send_step t ~step:3 suggestion;
        revalidate_s3 t st;
        try_progress t
      end
    | _ ->
      if (not st.s3_processed) && min_over_slots st.s3_valid_total >= t.n - t.f then begin
        st.s3_processed <- true;
        for slot = 0 to t.slots - 1 do
          let c0 = st.s3_valid.(slot).(0) and c1 = st.s3_valid.(slot).(1) in
          let decide v =
            if t.decided.(slot) = None then begin
              t.decided.(slot) <- Some (v = 1);
              t.n_decided <- t.n_decided + 1;
              t.on_decide slot (v = 1)
            end;
            t.est.(slot) <- v
          in
          if c1 >= 2 * t.f + 1 then decide 1
          else if c0 >= 2 * t.f + 1 then decide 0
          else if c1 >= t.f + 1 then t.est.(slot) <- 1
          else if c0 >= t.f + 1 then t.est.(slot) <- 0
          else if t.decided.(slot) = None then
            t.est.(slot) <- coin_flip t ~round:t.round ~slot
        done;
        if all_decided t && t.all_decided_round = None then
          t.all_decided_round <- Some t.round;
        (* run two extra rounds after local completion so laggards can
           gather our broadcasts, then halt *)
        (match t.all_decided_round with
         | Some r when t.round >= r + 2 -> t.halted <- true
         | _ ->
           t.round <- t.round + 1;
           t.step <- 1;
           send_step t ~step:1 t.est;
           try_progress t)
      end
  end

let on_deliver t ~from payload =
  if not t.halted then begin
    match decode_payload payload with
    | None -> ()  (* malformed: Byzantine sender, drop *)
    | Some (round, step, vals) ->
      if round >= 1 && Array.length vals = t.slots then begin
        let st = round_state t round in
        (match step with
         | 1 ->
           if (not (Hashtbl.mem st.s1_senders from))
           && Array.for_all (fun v -> v <= 1) vals then begin
             Hashtbl.replace st.s1_senders from vals;
             Array.iteri (fun slot v -> st.s1_count.(slot).(v) <- st.s1_count.(slot).(v) + 1) vals;
             revalidate_s2 t st
           end
         | 2 ->
           if (not (Hashtbl.mem st.s2_senders from))
           && Array.for_all (fun v -> v <= 1) vals then begin
             Hashtbl.replace st.s2_senders from vals;
             st.s2_pending <- (from, vals) :: st.s2_pending;
             revalidate_s2 t st;
             revalidate_s3 t st
           end
         | 3 ->
           if (not (Hashtbl.mem st.s3_senders from))
           && Array.for_all (fun v -> v <= 2) vals then begin
             Hashtbl.replace st.s3_senders from vals;
             revalidate_s3 t st
           end
         | _ -> ());
        try_progress t
      end
  end
