(* The OS boundary of the serving runtime. Sockets are non-blocking;
   every partial or would-block outcome maps onto the Transport.conn
   contract ("" / 0 accepted), and hard errors (peer reset, EPIPE)
   just kill the connection — the runtime's shedding and the
   protocol's retries absorb the rest. *)

type listener = {
  l_fd : Unix.file_descr;
  l_path : string;
  mutable l_open : bool;
}

let recv_chunk = 65536

let conn_of_fd fd : Transport.conn =
  Unix.set_nonblock fd;
  let dead = ref false in
  let kill () =
    if not !dead then begin
      dead := true;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    end
  in
  let buf = Bytes.create recv_chunk in
  { Transport.recv =
      (fun () ->
         if !dead then ""
         else
           match Unix.read fd buf 0 recv_chunk with
           | 0 ->
             (* orderly EOF *)
             kill ();
             ""
           | n -> Bytes.sub_string buf 0 n
           | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ""
           | exception Unix.Unix_error (_, _, _) ->
             kill ();
             "");
    send =
      (fun s ~pos ~len ->
         if !dead then 0
         else
           match Unix.write_substring fd s pos len with
           | n -> n
           | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> 0
           | exception Unix.Unix_error (_, _, _) ->
             kill ();
             0);
    alive = (fun () -> not !dead);
    close = kill }

let listen ~path () =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64 (* backlog *);
  Unix.set_nonblock fd;
  { l_fd = fd; l_path = path; l_open = true }

let accept_all listeners on_conn =
  Array.iteri
    (fun node l ->
       let rec go () =
         if l.l_open then
           match Unix.accept ~cloexec:true l.l_fd with
           | fd, _ -> on_conn ~node (conn_of_fd fd); go ()
           | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
       in
       go ())
    listeners

let close_listener l =
  if l.l_open then begin
    l.l_open <- false;
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink l.l_path with Unix.Unix_error _ -> ())
  end

let connect ~path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  conn_of_fd fd
