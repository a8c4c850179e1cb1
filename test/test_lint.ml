(* ddemos-lint rule tests: every rule must fire on a known-bad snippet
   and stay silent on the matching known-good one, suppression comments
   must work, and rule scoping must follow the directory layout. The
   fixtures are in-memory sources run through the same [Lint.lint_string]
   path the CLI driver uses; the interprocedural tests additionally
   exercise [Lint.lint_program] over a temporary multi-file tree. *)

module Lint = Dd_analysis.Lint
module Rules = Dd_analysis.Rules
module Findings = Dd_analysis.Findings
module Baseline = Dd_analysis.Baseline

let rules = Rules.all ()

let lint ?(file = "lib/core/fixture.ml") ?(interfaces = []) source =
  Lint.lint_string ~rules ~interfaces ~file ~source

let rules_hit fs = List.sort_uniq compare (List.map (fun f -> f.Findings.rule) fs)

let check_fires name rule ?file ?interfaces source =
  let fs = lint ?file ?interfaces source in
  Alcotest.(check bool)
    (name ^ ": fires " ^ rule)
    true
    (List.exists (fun f -> f.Findings.rule = rule) fs)

let check_silent name rule ?file ?interfaces source =
  let fs = lint ?file ?interfaces source in
  Alcotest.(check bool)
    (name ^ ": no " ^ rule)
    false
    (List.exists (fun f -> f.Findings.rule = rule) fs)

let check_clean name ?file ?interfaces source =
  let fs = lint ?file ?interfaces source in
  Alcotest.(check (list string)) (name ^ ": clean") [] (rules_hit fs)

(* --- R1: ct-equality --------------------------------------------------- *)

let test_ct_equality () =
  check_fires "poly eq on vote_code" "ct-equality"
    "let check vote_code submitted = vote_code = submitted";
  check_fires "string.equal on receipt" "ct-equality"
    "let check receipt r = String.equal receipt r";
  check_fires "compare on mac" "ct-equality"
    "let order mac other = compare mac other";
  check_fires "record field" "ct-equality"
    "let check u submitted = u.u_code = submitted";
  check_fires "neq on key" "ct-equality"
    "let changed key k' = key <> k'";
  check_clean "Ct.equal is the fix"
    "let check vote_code submitted = Dd_crypto.Ct.equal vote_code submitted";
  check_clean "non-secret names are fine"
    "let same serial other = serial = other";
  check_clean "public field of secret record"
    "let aligned share node = share.Shamir_bytes.x = node + 1";
  (* out of scope: the simulator compares freely *)
  check_clean "sim out of scope" ~file:"lib/sim/fixture.ml"
    "let check vote_code submitted = vote_code = submitted"

(* --- R2: sans-io ------------------------------------------------------- *)

let test_sans_io () =
  check_fires "Stdlib.Random" "sans-io" "let jitter () = Random.int 100";
  check_fires "Unix time" "sans-io" "let now () = Unix.gettimeofday ()";
  check_fires "Sys.time" "sans-io" "let now () = Sys.time ()";
  check_fires "console" "sans-io" {|let log msg = print_endline msg|};
  check_fires "printf" "sans-io" {|let log x = Printf.printf "%d" x|};
  check_clean "drbg is the fix"
    "let jitter rng = Dd_crypto.Drbg.int rng 100";
  check_clean "injected now is the fix"
    "let within env = env.now () < env.election_end ()";
  check_clean "sim may do IO" ~file:"lib/sim/fixture.ml"
    {|let log msg = print_endline msg; Printf.printf "t=%f" (Unix.gettimeofday ())|};
  (* executables are exempt: bin/ and bench/ drive the simulator *)
  check_silent "bin is out of scope" "sans-io" ~file:"bin/fixture.ml"
    "let log msg = print_endline msg";
  check_silent "bench is out of scope" "sans-io" ~file:"bench/fixture.ml"
    "let now () = Unix.gettimeofday ()";
  (* file IO is confined to the Dd_store file backend *)
  check_fires "open_out in node code" "sans-io"
    {|let save path s = let oc = open_out path in output_string oc s|};
  check_fires "In_channel in node code" "sans-io"
    "let slurp path = In_channel.with_open_bin path In_channel.input_all";
  check_fires "Sys.remove in node code" "sans-io"
    "let wipe path = Sys.remove path";
  check_silent "file backend may touch files" "sans-io"
    ~file:"lib/storage/file_device.ml"
    {|let save path s = Sys.remove path; let oc = open_out path in output_string oc s|};
  check_silent "linter reads sources" "sans-io" ~file:"lib/analysis/fixture.ml"
    "let slurp path = In_channel.with_open_bin path In_channel.input_all";
  (* the segment layer is sans-IO too: it sees only a Device record, so
     any direct file call in lib/segment is a layering violation *)
  check_fires "open_in in segment code" "sans-io" ~file:"lib/segment/fixture.ml"
    "let slurp path = let ic = open_in_bin path in really_input_string ic 8";
  check_fires "Sys.rename in segment code" "sans-io" ~file:"lib/segment/fixture.ml"
    "let seal tmp final = Sys.rename tmp final";
  check_clean "segment IO goes through the device record"
    ~file:"lib/segment/fixture.ml"
    "let chunk dev pos len = dev.Dd_store.Device.log_read ~pos ~len";
  (* the serving runtime's OS boundary is exactly lib/serve/socket.ml:
     Unix sockets are allowed there, and only there *)
  check_silent "socket backend may speak Unix" "sans-io"
    ~file:"lib/serve/socket.ml"
    "let mk () = Unix.socket PF_UNIX SOCK_STREAM 0";
  check_fires "ambient time still banned in the socket backend" "sans-io"
    ~file:"lib/serve/socket.ml"
    "let now () = Unix.gettimeofday ()";
  check_fires "console still banned in the socket backend" "sans-io"
    ~file:"lib/serve/socket.ml"
    {|let log msg = print_endline msg|};
  check_fires "Unix banned in the rest of lib/serve" "sans-io"
    ~file:"lib/serve/runtime.ml"
    "let mk () = Unix.socket PF_UNIX SOCK_STREAM 0";
  check_fires "Random banned even in the socket backend" "sans-io"
    ~file:"lib/serve/socket.ml"
    "let jitter () = Random.int 100"

(* --- R3: exception-hygiene --------------------------------------------- *)

let test_exception_hygiene () =
  check_fires "Hashtbl.find" "exception-hygiene"
    "let lookup tbl serial = Hashtbl.find tbl serial";
  check_fires "List.find" "exception-hygiene"
    "let pick l = List.find (fun x -> x > 0) l";
  check_fires "Option.get" "exception-hygiene"
    "let force x = Option.get x";
  check_fires "failwith" "exception-hygiene"
    {|let reject () = failwith "bad message"|};
  check_fires "assert" "exception-hygiene"
    "let handle n = assert (n >= 0)";
  check_clean "assert false marks dead code"
    "let unreachable () = assert false";
  check_clean "find_opt is the fix"
    "let lookup tbl serial = Hashtbl.find_opt tbl serial";
  check_clean "crypto out of scope" ~file:"lib/crypto/fixture.ml"
    "let lookup tbl serial = Hashtbl.find tbl serial"

(* --- R4: wire-exhaustive ----------------------------------------------- *)

let test_wire_exhaustive () =
  check_fires "wildcard over vc_msg" "wire-exhaustive"
    {|let f (m : Messages.vc_msg) =
        match m with
        | Messages.Vote _ -> 1
        | _ -> 0|};
  check_fires "catch-all variable" "wire-exhaustive"
    {|let f m =
        match m with
        | Messages.Vote_set_submit _ -> 1
        | other -> ignore other; 0|};
  check_fires "guarded wildcard still drops" "wire-exhaustive"
    {|let f m late =
        match m with
        | Messages.Endorse _ -> 1
        | _ when late -> 2
        | _ -> 0|};
  check_clean "explicit arms are the fix"
    {|let f m =
        match m with
        | Messages.Vote_set_submit _ -> 1
        | Messages.Trustee_post _ -> 0|};
  check_clean "matches over other types may use wildcards"
    {|let f x = match x with Some (1, _) -> 1 | _ -> 0|}

(* --- R6: domain-safe-state --------------------------------------------- *)

let test_domain_safe_state () =
  check_fires "top-level ref" "domain-safe-state"
    ~file:"lib/bignum/fixture.ml"
    "let counter = ref 0";
  check_fires "top-level Array.make" "domain-safe-state"
    ~file:"lib/crypto/fixture.ml"
    "let scratch = Array.make 64 0l";
  check_fires "top-level Bytes.create" "domain-safe-state"
    ~file:"lib/crypto/fixture.ml"
    "let buf = Bytes.create 32";
  check_fires "top-level Hashtbl" "domain-safe-state"
    ~file:"lib/group/fixture.ml"
    "let cache = Hashtbl.create 16";
  check_fires "top-level lazy" "domain-safe-state"
    ~file:"lib/group/fixture.ml"
    "let default = lazy (create ())";
  check_fires "constrained binding still fires" "domain-safe-state"
    ~file:"lib/sig/fixture.ml"
    "let tbl : int array = Array.make 8 0";
  check_fires "nested module is still module state" "domain-safe-state"
    ~file:"lib/group/fixture.ml"
    "module Inner = struct let c = ref 0 end";
  check_clean "DLS is the fix"
    ~file:"lib/crypto/fixture.ml"
    "let w_key = Domain.DLS.new_key (fun () -> Array.make 64 0l)";
  check_clean "Once cell is the fix"
    ~file:"lib/group/fixture.ml"
    "let default = Dd_parallel.Once.make (fun () -> create ())";
  check_clean "Atomic publish is fine"
    ~file:"lib/group/fixture.ml"
    "let cell = Atomic.make None";
  check_clean "array literal constants are fine"
    ~file:"lib/crypto/fixture.ml"
    "let k = [| 1l; 2l; 3l |]";
  check_clean "local mutable state inside a function is fine"
    ~file:"lib/bignum/fixture.ml"
    "let f n = let acc = ref 0 in for i = 0 to n do acc := !acc + i done; !acc";
  check_clean "core is out of scope" ~file:"lib/core/fixture.ml"
    "let cache = Hashtbl.create 16";
  check_clean "suppression with justification" ~file:"lib/crypto/fixture.ml"
    "(* lint: allow domain-safe-state — init-once at load, read-only after *)\n\
     let sbox = Bytes.create 256"

(* --- R7: secret-taint (interprocedural) -------------------------------- *)

let test_secret_taint () =
  (* secret-named values into the variable-time surface *)
  check_fires "sk into mul_vartime" "secret-taint"
    ~file:"lib/sig/fixture.ml"
    "let leak c sk g = Curve.mul_vartime c sk g";
  check_fires "witness into msm" "secret-taint"
    ~file:"lib/zkp/fixture.ml"
    "let leak c witness p = Curve.msm c [| (witness, p) |]";
  check_fires "suffixed name into mul2" "secret-taint"
    ~file:"lib/sig/fixture.ml"
    "let leak c table trustee_sk e pk = Curve.mul2 c table trustee_sk e pk";
  check_fires "record field" "secret-taint"
    ~file:"lib/vss/fixture.ml"
    "let leak c st p = Curve.mul_vartime c st.nonce p";
  (* wrappers that leave the value unchanged *)
  check_fires "type-annotated secret" "secret-taint"
    ~file:"lib/sig/fixture.ml"
    "let leak c sk g = Curve.mul_vartime c (sk : Scalar.t) g";
  check_fires "local open around secret" "secret-taint"
    ~file:"lib/sig/fixture.ml"
    "let leak c sk g = Curve.mul_vartime c Scalar.(sk) g";
  check_fires "sequence tail exposes secret" "secret-taint"
    ~file:"lib/sig/fixture.ml"
    "let leak c sk g tick = Curve.mul_vartime c (tick (); sk) g";
  check_clean "public scalars are fine" ~file:"lib/sig/fixture.ml"
    "let verify c s e pk = Curve.mul2 c table s e pk";
  (* the scalar field's Euclid inverse is on the same surface *)
  check_fires "sk into inv_vartime" "secret-taint"
    ~file:"lib/vss/fixture.ml"
    "let leak fn sk = Modular.inv_vartime fn sk";
  check_clean "public index difference into inv_vartime"
    ~file:"lib/vss/fixture.ml"
    "let basis fn xi xj = Modular.inv_vartime fn (Modular.sub fn xj xi)";
  check_clean "constant-time mul is the fix" ~file:"lib/sig/fixture.ml"
    "let ok c sk g = Curve.mul c sk g";
  check_clean "unrelated callee with secret arg" ~file:"lib/sig/fixture.ml"
    "let derive sk = Dd_crypto.Sha256.digest sk";
  (* flows a per-expression name scan cannot see: *)
  (* 1. rebinding launders the name *)
  let rebind = "let leak c sk g = let k2 = sk in Curve.mul_vartime c k2 g" in
  check_fires "rebind does not evade R7" "secret-taint" ~file:"lib/sig/fixture.ml" rebind;
  (* 2. the sink is inside a helper; the caller's argument is the secret *)
  let via_helper =
    "let helper c x p = Curve.mul_vartime c x p\n\
     let outer c sk p = helper c sk p"
  in
  check_fires "helper param sink crosses the call" "secret-taint"
    ~file:"lib/sig/fixture.ml" via_helper;
  (* 3. a returned DRBG output is tainted through the call *)
  check_fires "returned DRBG output into wire encoder" "secret-taint"
    "let fresh rng = Drbg.bytes rng 32\n\
     let leak w rng = Wire.put_bytes w (fresh rng)";
  (* destructuring and tuples propagate *)
  check_fires "tuple destructuring keeps taint" "secret-taint"
    ~file:"lib/sig/fixture.ml"
    "let leak c rng g = let (a, _b) = (Drbg.bytes rng 32, 1) in Curve.mul_vartime c a g";
  (* pass-through plumbing keeps taint *)
  check_fires "String.sub keeps taint" "secret-taint"
    "let leak w sk = Wire.put_bytes w (String.sub sk 0 8)";
  (* direct sinks *)
  check_fires "secret into formatted output" "secret-taint"
    "let log msk = Printf.printf \"%s\" msk";
  check_fires "secret into early-exit compare" "secret-taint"
    "let eq sk other = sk = other";
  (* .mli annotations declare sources beyond the name heuristic *)
  check_fires "mli-declared secret val is a source" "secret-taint"
    ~interfaces:[ ("lib/core/keysrc.mli", "(* lint: secret *)\nval master : unit -> string\n") ]
    "let leak w = Wire.put_bytes w (Keysrc.master ())";
  check_fires "mli-declared secret field is a source" "secret-taint"
    ~interfaces:[ ("lib/core/keysrc.mli",
                   "type t = {\n  label : string;\n  master_material : string;  (* lint: secret *)\n}\n") ]
    "let leak w (st : Keysrc.t) = Wire.put_bytes w st.master_material";
  (* declassification: a (* lint: public *) val's result drops taint *)
  let derived =
    "let derive sk = String.sub sk 0 8\n\
     let send w sk = Wire.put_bytes w (derive sk)"
  in
  check_fires "in-program derivation keeps taint" "secret-taint" derived;
  check_silent "declared-public derivation drops taint" "secret-taint"
    ~interfaces:[ ("lib/core/fixture.mli",
                   "(* lint: public *)\nval derive : string -> string\n") ]
    derived;
  (* unknown external calls kill taint rather than flood *)
  check_silent "unknown callee kills taint" "secret-taint"
    "let ok w sk = Wire.put_bytes w (External.wrap sk)";
  (* only lib/ is in scope *)
  check_silent "bin out of scope" "secret-taint" ~file:"bin/fixture.ml"
    "let leak c sk g = Curve.mul_vartime c sk g";
  (* the segment layer's taint posture (see lib/segment/segment.mli):
     payload secrecy belongs to the owning codec's mli markers, so a
     codec-declared secret reaching the wire from segment code fires... *)
  check_fires "segment code writes an mli-declared secret to the wire"
    "secret-taint" ~file:"lib/segment/fixture.ml"
    ~interfaces:
      [ ("lib/core/codec.mli", "(* lint: secret *)\nval encode_trustee : unit -> string\n") ]
    "let leak w = Wire.put_bytes w (Codec.encode_trustee ())";
  (* ...while a Merkle commitment over the same bytes is public (the
     annotation mirrored from the real lib/crypto/merkle.mli) *)
  check_silent "a Merkle commitment over secret payloads is public"
    "secret-taint" ~file:"lib/segment/fixture.ml"
    ~interfaces:
      [ ("lib/core/codec.mli", "(* lint: secret *)\nval encode_trustee : unit -> string\n");
        ("lib/crypto/merkle.mli", "(* lint: public *)\nval leaf_hash : string -> string\n") ]
    "let commit w = Wire.put_bytes w (Merkle.leaf_hash (Codec.encode_trustee ()))"

(* R7 across compilation units: facts come from a sibling .mli, the
   summary of one file's function is applied in another file. *)
let test_secret_taint_cross_file () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ddemos_lint_xfile" in
  let core = Filename.concat (Filename.concat dir "lib") "core" in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  mkdirs core;
  let write name content =
    let path = Filename.concat core name in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  ignore (write "keysrc.mli" "(* lint: secret *)\nval master : unit -> string\n");
  let a = write "keysrc.ml" "let master () = \"material\"\n" in
  let b = write "user.ml"
      "let forward k = String.sub k 0 4\n\
       let leak w = Wire.put_bytes w (forward (Keysrc.master ()))\n"
  in
  let fs = Lint.lint_program ~rules [ a; b ] in
  Alcotest.(check bool) "cross-file flow found" true
    (List.exists
       (fun f -> f.Findings.rule = "secret-taint" && f.Findings.file = b)
       fs)

(* --- R8: domain-escape ------------------------------------------------- *)

let test_domain_escape () =
  check_fires "captured ref assignment" "domain-escape"
    "let sum pool xs =\n\
    \  let total = ref 0 in\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      total := !total + xs.(i));\n\
    \  !total";
  check_fires "captured Hashtbl mutation" "domain-escape"
    "let fill pool tbl xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      Hashtbl.replace tbl i xs.(i))";
  check_fires "captured Buffer mutation" "domain-escape"
    "let render pool buf xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      Buffer.add_string buf xs.(i))";
  check_fires "closure-independent index is a shared slot" "domain-escape"
    "let bad pool (dst : int array) xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      ignore i; dst.(0) <- 7)";
  check_fires "top-level mutable reached from closure" "domain-escape"
    "let scratch = Array.make 8 0\n\
     let bad pool xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      ignore scratch; ignore i)";
  check_fires "captured mutable field set" "domain-escape"
    "let bad pool st xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      st.count <- st.count + i)";
  (* the sanctioned patterns *)
  check_clean "disjoint index-addressed write is the contract"
    "let double pool (dst : int array) xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      dst.(i) <- xs.(i) * 2)";
  check_clean "derived index still mentions the parameter"
    "let shard pool (dst : int array) xs k =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      dst.((i * k) + 1) <- xs.(i))";
  check_clean "nested slot chains addressed by the parameter"
    "let fill pool (lines : int array array) serial =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 8 (fun node ->\n\
    \      lines.(node).(serial) <- node)";
  check_clean "closure-local state is private"
    "let sums pool (out : int array) xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      let acc = ref 0 in\n\
    \      for j = 0 to i do acc := !acc + xs.(j) done;\n\
    \      out.(i) <- !acc)";
  check_clean "Atomic accumulation is safe"
    "let count pool (hits : int Atomic.t) xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      if xs.(i) > 0 then Atomic.incr hits)";
  check_clean "DLS scratch is per-domain"
    "let key = Domain.DLS.new_key (fun () -> 0)\n\
     let run pool xs =\n\
    \  Dd_parallel.Pool.parallel_for pool 0 (Array.length xs) (fun i ->\n\
    \      ignore (Domain.DLS.get key); ignore i)";
  check_clean "sequential mutation outside the pool call is fine"
    "let sum xs = let total = ref 0 in Array.iter (fun x -> total := !total + x) xs; !total"

(* --- suppressions ------------------------------------------------------ *)

let test_suppression () =
  check_clean "same-line allow"
    "let check vote_code s = vote_code = s (* lint: allow ct-equality bootstrapping *)";
  check_clean "line-above allow"
    "(* lint: allow ct-equality fixture justification *)\n\
     let check vote_code s = vote_code = s";
  check_fires "wrong rule name does not suppress" "ct-equality"
    "(* lint: allow sans-io justified elsewhere *)\nlet check vote_code s = vote_code = s";
  check_fires "allow two lines up does not suppress" "ct-equality"
    "(* lint: allow ct-equality justified here *)\n\n\
     let check vote_code s = vote_code = s";
  check_clean "multiple rules in one comment"
    "(* lint: allow ct-equality exception-hygiene fixture exercises both rules *)\n\
     let check vote_code s = assert (vote_code = s)"

let test_bare_allow () =
  check_fires "allow without justification is a finding" "bare-allow"
    "(* lint: allow ct-equality *)\n\
     let check vote_code s = vote_code = s";
  check_fires "punctuation is not a justification" "bare-allow"
    "let check vote_code s = vote_code = s (* lint: allow ct-equality --- *)";
  check_fires "unknown rule name is a finding" "bare-allow"
    "(* lint: allow ct-equalty typo'd rule suppresses nothing *)\n\
     let serial_of x = x";
  check_silent "justified allow is not bare" "bare-allow"
    "(* lint: allow ct-equality receipt compare is length-gated upstream *)\n\
     let check receipt r = receipt = r";
  (* the unjustified allow still suppresses; only the bare-allow finding
     surfaces, keeping the migration incremental *)
  check_silent "unjustified allow still suppresses its rule" "ct-equality"
    "(* lint: allow ct-equality *)\n\
     let check vote_code s = vote_code = s"

(* --- parse errors and the driver plumbing ------------------------------ *)

let test_parse_error () =
  let fs = lint "let let let" in
  Alcotest.(check (list string)) "parse finding" [ "parse" ] (rules_hit fs)

let test_harvest () =
  Alcotest.(check (list string)) "harvests both wire types"
    [ "Ping"; "Pong"; "Post" ]
    (Lint.harvest_wire_constructors
       ~source:"type vc_msg = Ping of int | Pong\ntype bb_msg = Post\ntype other = Not_wire");
  Alcotest.(check (list string)) "nothing to harvest" []
    (Lint.harvest_wire_constructors ~source:"let x = 1")

let test_findings_output () =
  let f =
    match lint "let check vote_code s = vote_code = s" with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)
  in
  Alcotest.(check int) "line" 1 f.Findings.line;
  Alcotest.(check string) "file" "lib/core/fixture.ml" f.Findings.file;
  Alcotest.(check int) "fingerprint length" 16 (String.length f.Findings.fingerprint);
  let json = Findings.list_to_json [ f ] in
  Alcotest.(check bool) "json shape" true
    (String.length json > 2 && json.[0] = '[' && String.length (Findings.to_text f) > 0)

(* --- fingerprints and baselines ---------------------------------------- *)

let the_finding fs =
  match fs with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_fingerprint_stability () =
  let before = the_finding (lint "let check vote_code s = vote_code = s") in
  let after =
    the_finding
      (lint
         "let unrelated = 42\n\n\
          let helper x = x + 1\n\n\
          let check vote_code s = vote_code = s")
  in
  Alcotest.(check bool) "line moved" true (before.Findings.line <> after.Findings.line);
  Alcotest.(check string) "fingerprint survives unrelated insertions"
    before.Findings.fingerprint after.Findings.fingerprint;
  (* two identical violations stay distinct *)
  let two =
    lint "let check vote_code s = vote_code = s\nlet check2 vote_code s = vote_code = s"
  in
  (match two with
   | [ a; b ] ->
     Alcotest.(check bool) "occurrence index separates duplicates" true
       (a.Findings.fingerprint <> b.Findings.fingerprint)
   | fs -> Alcotest.failf "expected two findings, got %d" (List.length fs))

let test_baseline_roundtrip () =
  let fs =
    lint "let check vote_code s = vote_code = s\nlet order mac other = compare mac other"
  in
  Alcotest.(check bool) "have findings" true (List.length fs >= 2);
  let entries = Baseline.of_findings ~date:"2026-08-08" fs in
  let reparsed = Baseline.parse (Baseline.format entries) in
  Alcotest.(check int) "format/parse round-trips" (List.length entries)
    (List.length reparsed);
  List.iter2
    (fun (a : Baseline.entry) (b : Baseline.entry) ->
       Alcotest.(check string) "fp" a.Baseline.fp b.Baseline.fp;
       Alcotest.(check string) "rule" a.Baseline.rule b.Baseline.rule;
       Alcotest.(check string) "file" a.Baseline.file b.Baseline.file;
       Alcotest.(check string) "date" a.Baseline.added b.Baseline.added)
    entries reparsed;
  (* full baseline: everything matched, nothing fresh, nothing stale *)
  let app = Baseline.apply reparsed fs in
  Alcotest.(check int) "no fresh" 0 (List.length app.Baseline.fresh);
  Alcotest.(check int) "all baselined" (List.length fs)
    (List.length app.Baseline.baselined);
  Alcotest.(check int) "no stale" 0 (List.length app.Baseline.stale);
  (* the finding is fixed: its entry goes stale *)
  let fixed = lint "let order mac other = compare mac other" in
  let app = Baseline.apply reparsed fixed in
  Alcotest.(check int) "fix leaves a stale entry"
    (List.length fs - List.length fixed)
    (List.length app.Baseline.stale);
  (* a new finding is fresh, not hidden by the baseline *)
  let app = Baseline.apply [] fs in
  Alcotest.(check int) "empty baseline: all fresh" (List.length fs)
    (List.length app.Baseline.fresh)

(* --- SARIF -------------------------------------------------------------- *)

let test_sarif () =
  let f = the_finding (lint "let check vote_code s = vote_code = s") in
  let sarif =
    Findings.to_sarif
      ~rules:[ ("ct-equality", "secrets need Ct.equal") ]
      [ f ]
  in
  let contains needle =
    let n = String.length needle and h = String.length sarif in
    let rec go i =
      i + n <= h && (String.sub sarif i n = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("sarif contains " ^ needle) true (contains needle))
    [ "\"version\":\"2.1.0\"";
      "https://docs.oasis-open.org/sarif/sarif/v2.1.0";
      "\"name\":\"ddemos-lint\"";
      "\"id\":\"ct-equality\"";
      "\"ruleId\":\"ct-equality\"";
      "\"startLine\":1";
      (* our col is 0-based; SARIF columns are 1-based *)
      Printf.sprintf "\"startColumn\":%d" (f.Findings.col + 1);
      Printf.sprintf "\"ddemosLint/v1\":\"%s\"" f.Findings.fingerprint ]

(* The shipped tree must lint clean: the @lint alias is the real gate,
   but catching a regression here gives a much faster signal. *)
let test_tree_clean () =
  let roots = List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ] in
  if roots <> [] then begin
    let files = Lint.ml_files roots in
    Alcotest.(check bool) "found the tree" true (List.length files > 30);
    let fs = Lint.lint_program ~rules files in
    List.iter (fun f -> Printf.eprintf "%s\n" (Findings.to_text f)) fs;
    Alcotest.(check int) "tree findings" 0 (List.length fs)
  end

(* Every rule the driver runs has a "## Rn `name`" section in
   docs/INVARIANTS.md, and every such section names a rule it runs. *)
let test_docs_cover_rules () =
  let doc =
    match List.find_opt Sys.file_exists [ "../docs/INVARIANTS.md"; "docs/INVARIANTS.md" ] with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> Alcotest.fail "docs/INVARIANTS.md not found"
  in
  let headings =
    String.split_on_char '\n' doc
    |> List.filter_map (fun line ->
        Scanf.sscanf_opt line "## R%d `%[^`]`" (fun _ name -> name))
  in
  let names = List.map (fun r -> r.Rules.name) rules @ [ Dd_analysis.Taint.rule_name ] in
  Alcotest.(check (list string)) "one section per rule"
    (List.sort compare names) (List.sort compare headings)

let () =
  Alcotest.run "lint"
    [ ("rules",
       [ Alcotest.test_case "R1 ct-equality" `Quick test_ct_equality;
         Alcotest.test_case "R2 sans-io" `Quick test_sans_io;
         Alcotest.test_case "R3 exception-hygiene" `Quick test_exception_hygiene;
         Alcotest.test_case "R4 wire-exhaustive" `Quick test_wire_exhaustive;
         Alcotest.test_case "R6 domain-safe-state" `Quick test_domain_safe_state;
         Alcotest.test_case "R7 secret-taint" `Quick test_secret_taint;
         Alcotest.test_case "R7 cross-file" `Quick test_secret_taint_cross_file;
         Alcotest.test_case "R8 domain-escape" `Quick test_domain_escape ]);
      ("suppression",
       [ Alcotest.test_case "allow comments" `Quick test_suppression;
         Alcotest.test_case "bare allows" `Quick test_bare_allow ]);
      ("driver",
       [ Alcotest.test_case "parse errors" `Quick test_parse_error;
         Alcotest.test_case "constructor harvest" `Quick test_harvest;
         Alcotest.test_case "findings output" `Quick test_findings_output;
         Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stability;
         Alcotest.test_case "baseline round-trip" `Quick test_baseline_roundtrip;
         Alcotest.test_case "sarif shape" `Quick test_sarif;
         Alcotest.test_case "shipped tree is clean" `Quick test_tree_clean;
         Alcotest.test_case "docs cover every rule" `Quick test_docs_cover_rules ]) ]
