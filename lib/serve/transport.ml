type conn = {
  recv : unit -> string;
  send : string -> pos:int -> len:int -> int;
  alive : unit -> bool;
  close : unit -> unit;
}

let send_string c s =
  let n = String.length s in
  let rec go pos =
    if pos >= n then n
    else
      let k = c.send s ~pos ~len:(n - pos) in
      if k = 0 then pos else go (pos + k)
  in
  go 0
