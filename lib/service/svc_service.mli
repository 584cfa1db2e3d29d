(** Request dispatch for the decision service.

    Owns the session store, the LRU result cache, and the per-request
    deadline machinery.  One [t] serves one server process.

    Every entry point runs one request path: check the deadline,
    resolve the session, run the verb — for a query verb, plan, look
    up the cache, compute on a miss and store.  Two threading contracts
    coexist on that path and must not be mixed on one [t]:

    - the {e single-coordinator} entry points ({!handle},
      {!handle_batch}, {!handle_line}, {!handle_lines}) must all be
      called from one coordinating thread ({!handle_batch} farms work
      out to the {!Dl_parallel} pool internally but never lets workers
      touch the cache or the session store);
    - the {e concurrent} entry points ({!handle_concurrent},
      {!handle_line_concurrent}) may be called from many domains at
      once — the TCP and Unix-socket connection workers do.  They
      serialize per session (whole-request session lock), serialize the
      non-worker-safe verbs globally (their decision procedures share
      coordinator-only memo tables), and shed over-quota requests with
      [busy] before planning.  Both evaluate with the process default
      engine ({!Dl_engine.default}).

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
    session, run sequentially at their position on the batch path, and
    hold the session lock on the concurrent path like everything else.
    Each session keeps a handful of incrementally maintained fixpoints
    ({!Dl_incr.t}) per instance, keyed by program fingerprint: a
    cache-missed tuple-returning [eval] creates one (on the
    single-request and concurrent paths — batch pool workers never touch
    session state), mutations repair all of them (counting +
    Backward/Forward deletion), and subsequent [eval]/[holds] answer
    from a repaired one instead of re-running the fixpoint.  Because
    cache keys include the instance fingerprint, a mutation changes
    every affected key — the cache can never serve a pre-mutation
    answer.  A deadline expiring mid-repair
    drops the instance's materializations wholesale and leaves the
    instance unedited, so [timeout] never publishes a half-applied
    mutation; the next eval simply rebuilds cold. *)

type t

val create :
  ?cache_capacity:int ->
  ?parallel:bool ->
  ?quota:int ->
  ?quota_window:float ->
  unit ->
  t
(** [cache_capacity] defaults to 512 entries; [parallel] (default true)
    lets {!handle_batch} dispatch cache-missed [eval]/[holds] requests
    onto the {!Dl_parallel} domain pool.  [quota], when given, caps each
    session at that many requests per [quota_window] seconds (default
    window 1s) on the concurrent path; over-quota requests answer
    [busy].  The single-coordinator entry points ignore the quota. *)

val handle : t -> Svc_proto.request -> Svc_proto.response
(** Handle one request synchronously on the calling thread. *)

val handle_batch : t -> Svc_proto.request list -> Svc_proto.response list
(** Handle a batch, returning responses in request order.  Loads and
    stats execute sequentially at their position (so later requests in
    the batch see them); cache-missed [eval]/[holds] requests are
    deduplicated and run concurrently on the domain pool. *)

val handle_line : t -> string -> Svc_proto.response
(** Parse one request line and handle it; a malformed line yields an
    [error] response addressed to the line's first token. *)

val handle_lines : t -> string list -> Svc_proto.response list
(** {!handle_batch} at the line level, preserving malformed lines'
    positions in the output. *)

val handle_concurrent : t -> Svc_proto.request -> Svc_proto.response
(** Handle one request on the calling domain, safely concurrent with
    other calls on other domains (see the threading contracts above).
    Returns [busy] when the session is over quota. *)

val handle_line_concurrent : t -> string -> Svc_proto.response
(** {!handle_concurrent} at the line level. *)

val requests : t -> int
val timeouts : t -> int
val sessions : t -> int
val cache : t -> Svc_cache.t

