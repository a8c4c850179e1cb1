(* Helpers the test executables share. *)

(* Hex of a natural's big-endian bytes, for messages and known answers. *)
let nat_hex ?len a = Dd_crypto.Sha256.hex_of_string (Dd_bignum.Nat.to_bytes_be ?len a)

(* One payload framed as it goes on the wire. *)
let frame payload =
  let buf = Buffer.create (String.length payload + 4) in
  Dd_serve.Frame.encode_into buf payload;
  Buffer.contents buf

(* [with_temp_dir prefix f] is [f dir] on a fresh empty directory under
   the temp dir, which is then removed with everything in it, however
   [f] returns: a suite run outside [dune test] leaves nothing behind. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then remove dir) (fun () -> f dir)
