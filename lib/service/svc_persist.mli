(** Cache snapshots: persist the LRU result cache across restarts.

    Fingerprint cache keys hash process-local intern ids, so a snapshot
    records the writer's whole {!Symtab} (names in id order) ahead of
    the cache entries; {!load} re-interns those names first, and
    discards the snapshot entirely if any name lands on a different id
    than recorded — serving a stale key to a diverged table could
    return another request's body.  Loading into a freshly booted
    process always succeeds.

    The snapshot is a line-oriented text file with a
    [mondet-cache/1 mode=fingerprint syms=N entries=M] header; entries are
    stored least-recently-used first so replaying them through
    {!Svc_cache.add} reproduces recency order exactly.  See DESIGN.md
    for the full format.

    Only the cache is persisted.  Sessions — and with them the
    instances' materialized fixpoints ({!Dl_incr.t}) — die with the
    process and are rebuilt by the client reloading and re-evaluating;
    a mutation after a warm restart therefore reports [maintained=0]
    until an eval has rebuilt a materialization.  This cannot produce a
    stale answer: cache keys include the instance's structural
    fingerprint, so a snapshot entry only ever hits for the exact
    instance value it was computed on — mutate the instance and every
    subsequent query misses the old keys by construction. *)

val save : string -> Svc_service.t -> unit
(** [save path svc] snapshots [svc]'s cache to [path], atomically
    (write to [path ^ ".tmp"], then rename).  May raise [Sys_error] on
    I/O failure. *)

val load : string -> Svc_service.t -> (int, string) result
(** [load path svc] replays the snapshot at [path] into [svc]'s cache
    and returns the number of entries loaded; [Ok 0] if [path] does not
    exist.  [Error reason] — with the cache left as it was, possibly
    partially warmed — if the snapshot is malformed, was written under a
    key mode other than [fingerprint], or its symbol ids no longer line
    up.  May raise [Sys_error] on I/O failure. *)
