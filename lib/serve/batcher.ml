module Auth = Ddemos.Auth
module Messages = Ddemos.Messages
module Wire = Dd_codec.Wire

type stats = {
  mutable batch_calls : int;
  mutable batched : int;
  mutable serial : int;
  mutable cache_hits : int;
}

type t = {
  keys : Auth.keys;
  verdicts : (string, bool) Hashtbl.t;  (* this tick's *)
  st : stats;
}

let create ~keys =
  { keys;
    verdicts = Hashtbl.create 64;
    st = { batch_calls = 0; batched = 0; serial = 0; cache_hits = 0 } }

let stats t = t.st

(* Verdicts are keyed by the exact (signer, body, tag) triple —
   anything else would let a forged tag alias a cached good one. *)
let obligation_key ~signer body tag =
  let w = Wire.writer () in
  Wire.put_varint w signer;
  Wire.put_bytes w body;
  Messages.put_tag w tag;
  Wire.contents w

let remember t key v = Hashtbl.replace t.verdicts key v

let verify t ~signer body tag =
  let key = obligation_key ~signer body tag in
  match Hashtbl.find_opt t.verdicts key with
  | Some v ->
    t.st.cache_hits <- t.st.cache_hits + 1;
    v
  | None ->
    t.st.serial <- t.st.serial + 1;
    let v = Auth.verify t.keys ~signer body tag in
    remember t key v;
    v

(* fresh obligations before one batch call pays for itself *)
let min_batch = 4

(* A tick's verdicts are read back in the same tick only, so each batch
   starts an empty table: it holds at most what one tick's messages
   oblige. *)
let preverify t obligations =
  Hashtbl.reset t.verdicts;
  (* collect the obligations, deduplicated in batch *)
  let seen = Hashtbl.create 64 in
  let fresh = ref [] and n_fresh = ref 0 in
  List.iter
    (fun (signer, body, tag) ->
       let key = obligation_key ~signer body tag in
       if not (Hashtbl.mem seen key) then begin
         Hashtbl.replace seen key ();
         fresh := (key, signer, body, tag) :: !fresh;
         incr n_fresh
       end)
    obligations;
  if !n_fresh >= min_batch then begin
    let obls = List.rev !fresh in
    t.st.batch_calls <- t.st.batch_calls + 1;
    let triples = List.map (fun (_, signer, body, tag) -> (signer, body, tag)) obls in
    if Auth.verify_batch t.keys triples then begin
      t.st.batched <- t.st.batched + !n_fresh;
      List.iter (fun (key, _, _, _) -> remember t key true) obls
    end
    else
      (* a bad tag is hiding in the batch: settle each obligation
         individually so only the invalid ones are rejected *)
      List.iter
        (fun (key, signer, body, tag) ->
           t.st.serial <- t.st.serial + 1;
           remember t key (Auth.verify t.keys ~signer body tag))
        obls
  end
(* below [min_batch] the lazy path (the [verify] hook) wins: the node
   may not even look at some obligations, so eager serial checking
   would do work the serial backend skips *)
