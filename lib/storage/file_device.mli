(** Real append-only file backend for {!Device}, for bin/ tooling
    (chaos crash dumps, offline recovery inspection). The log is
    [dir/name.wal]; reopening an existing file resumes it. Nothing is
    written, and neither the directory nor the file is created, before
    the first [log_append] or [log_reset]; until then an absent file
    reads as an empty log. The only module in lib/ permitted to do
    file IO (scoped ddemos-lint R2 exemption). *)

val create : dir:string -> name:string -> Device.t
