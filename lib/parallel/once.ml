(* A race-safe compute-once cell: the multicore-friendly replacement
   for [lazy] at module scope. [Lazy.force] from two domains raises
   [CamlinternalLazy.Undefined] on a race; this cell instead allows
   benign duplicate computation — both domains may run [f], exactly one
   result is published via a compare-and-set, and every caller returns
   the published value, so all domains agree on one (physically equal)
   result. [f] must therefore be pure (and cheap enough to run twice in
   the unlucky window); every compute-once cache in this codebase
   (the comb tables of G, H and each signer's key) satisfies that. *)

type 'a t = {
  f : unit -> 'a;
  cell : 'a option Atomic.t;
}

let make f = { f; cell = Atomic.make None }

let force t =
  match Atomic.get t.cell with
  | Some v -> v
  | None ->
    let v = t.f () in
    if Atomic.compare_and_set t.cell None (Some v) then v
    else begin
      match Atomic.get t.cell with
      | Some w -> w
      | None -> v (* unreachable: the cell is never reset *)
    end
