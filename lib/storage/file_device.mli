(** Real append-only file backend for {!Device}, for bin/ tooling
    (chaos crash dumps, offline recovery inspection). Creates
    [dir/name.wal]; reopening an existing file resumes the log. The
    only module in lib/ permitted to do file IO (scoped ddemos-lint R2
    exemption). *)

val create : dir:string -> name:string -> Device.t
