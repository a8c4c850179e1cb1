type 'a t = {
  capacity : int;
  q : 'a Queue.t;
}

let create ~capacity =
  { capacity = max 1 capacity; q = Queue.create () }

let push t x =
  if Queue.length t.q >= t.capacity then false
  else begin
    Queue.add x t.q;
    true
  end

let drain ~max t =
  let rec go k acc =
    if k >= max then List.rev acc
    else
      match Queue.take_opt t.q with
      | None -> List.rev acc
      | Some x -> go (k + 1) (x :: acc)
  in
  go 0 []

