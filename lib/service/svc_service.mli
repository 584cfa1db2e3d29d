(** Request dispatch for the decision service.

    Owns the session store, the LRU result cache, and the per-request
    deadline machinery.  One [t] serves one server process.

    Every entry point runs one request path, on the calling domain:
    check the deadline, resolve the session, take the session's lock,
    check its quota, run the verb — for a query verb, plan, look up the
    cache, compute on a miss and store.  The path is safe from many
    domains at once, as the TCP and Unix-socket workers call it: it
    serializes per session (whole-request session lock), the cache
    carries its own lock, and the decision procedures keep their memo
    tables per domain.  The stdio loop and [batch] call it from one
    thread.  Evaluation runs the one engine ({!Dl_engine}); its planner
    picks magic sets per goal.

    {2 Deadlines}

    A request with [deadline=MS] gets a {!Dl_cancel} token expiring [MS]
    milliseconds after handling starts.  The token is probed once before
    any work, on every entry point — before the session is resolved or
    created, so [deadline=0] deterministically returns [timeout] and
    leaves no session behind — and then at
    every semi-naive round boundary inside evaluation, at every chase
    step inside the separator, and between rewrite-check samples.  A
    timeout aborts only that request: the response is [ID timeout], the
    cache is not written (only successes are cached), and the shared
    evaluator caches stay consistent (see DESIGN.md on the
    cancellation-token contract).

    {2 Caching}

    All query verbs ([eval], [holds], [mondet-test], [certain-answers],
    [rewrite-check]) are cached under the resolved objects — not their
    session names — so reloading the same program under another name, or
    in another session, still hits.  The key composes the objects'
    structural fingerprints ({!Instance.fingerprint_hex},
    {!Datalog.fingerprint_hex}, {!View.fingerprint_hex},
    {!Rpq.fingerprint_hex}), making key construction O(1) on the warm
    path, independent of instance size.  The test suite keeps digests of
    canonical printed forms as an oracle: both schemes must produce the
    same hit/miss trace.

    {2 Mutations and materialized fixpoints}

    [assert]/[retract] edit a session instance in place and are never
    cached (every execution changes state).  They require an existing
    session and hold the session lock like everything else.  Each
    session keeps a handful of incrementally maintained fixpoints
    ({!Dl_incr.t}) per instance, keyed by program fingerprint: a
    cache-missed tuple-returning [eval] creates one, mutations repair
    all of them (Backward/Forward deletion), and subsequent
    [eval]/[holds] answer from a repaired one instead of re-running the
    fixpoint.  Because
    cache keys include the instance fingerprint, a mutation changes
    every affected key — the cache can never serve a pre-mutation
    answer.  A deadline expiring mid-repair leaves the instance
    unedited, so [timeout] never publishes a half-applied mutation; the
    materializations still on the unedited instance stay in use (a
    cancelled repair leaves its materialization as it was). *)

type t

val create :
  ?cache_capacity:int ->
  ?parallel:bool ->
  ?quota:int ->
  ?quota_window:float ->
  unit ->
  t
(** [cache_capacity] defaults to 512 entries.  [quota], when given, caps
    each session at that many requests per [quota_window] seconds
    (default window 1s); over-quota requests answer [busy].  [parallel]
    is ignored: it is kept only for callers written against an older
    interface. *)

val handle : t -> Svc_proto.request -> Svc_proto.response
(** Handle one request on the calling domain, safely concurrent with
    other calls on other domains.  Returns [busy] when the session is
    over quota. *)

val handle_line : t -> string -> Svc_proto.response
(** Parse one request line and handle it; a malformed line yields an
    [error] response addressed to the line's first token. *)

val handle_lines : t -> string list -> Svc_proto.response list
(** {!handle_line} over the lines in order. *)

val handle_concurrent : t -> Svc_proto.request -> Svc_proto.response
(** {!handle}, under an older name. *)

val handle_line_concurrent : t -> string -> Svc_proto.response
(** {!handle_line}, under an older name. *)

val requests : t -> int
val timeouts : t -> int
val sessions : t -> int
val cache : t -> Svc_cache.t
