(** Work-sharded semi-naive evaluation over OCaml 5 domains.

    Same semantics as {!Dl_eval} — least fixpoint, early-stopping goal
    checks — from the same {!Dl_semi} round loop and the bytecode
    matcher of {!Dl_vm}, with each round's units shared across a
    persistent pool of [Domain.t] workers.  A unit is a (rule ×
    delta-position × delta-chunk) triple: the round's delta is split
    round-robin into chunks, and each worker runs its units' bytecode
    into a private accumulator instance.  Workers only read the shared
    round instances (their indexes are pre-built before dispatch), so
    matching is race-free; the single synchronization point is the
    round barrier, where the private accumulators are merged
    single-threaded with the warm {!Instance.union} (which extends
    cached indexes instead of rebuilding them).  The VM's in-loop
    cancellation probes are live inside workers: a deadline can
    interrupt a unit mid-enumeration, raising at the barrier.

    The result is deterministic: every round derives exactly the facts
    the sequential engine would, whatever the domain count or schedule,
    because chunks partition the delta and the merged union is a set.
    Early-stopping checks ({!holds}, {!holds_boolean}) communicate
    through the round's atomic stop flag — a worker that derives the
    goal sets it, everyone drains at the next emit, and the barrier
    returns what was derived so far — so the Boolean verdict is
    deterministic even though the stopped instance need not be.

    With an effective domain count of 1 the rounds run on the sequential
    scheduler: no pool, no chunking — this is then exactly {!Dl_vm}.

    Thread-safety contract: call this module (and anything routed to it
    through {!Dl_engine}) from one coordinating thread only.  The worker
    pool is process-global, sized by {!set_domains} / [MONDET_DOMAINS] /
    [Domain.recommended_domain_count], and is resized lazily when the
    requested count changes. *)

val set_domains : int -> unit
(** Request a total worker count (the coordinating thread counts as one
    worker, so [n - 1] domains are spawned).  Clamped to [1, 64].  This
    is what the CLI's [--domains] flag calls; it overrides the
    [MONDET_DOMAINS] environment variable, which in turn overrides
    [Domain.recommended_domain_count ()]. *)

val domains : unit -> int
(** The effective worker count the next evaluation will use. *)

val shutdown : unit -> unit
(** Join the worker pool (a no-op if none is live).  Idle domains are
    not free: every minor collection synchronizes all live domains, so a
    long single-threaded phase after a parallel one runs measurably
    slower while the pool idles.  Benchmarks and other timing-sensitive
    callers should [shutdown] when switching back to sequential work;
    the next parallel evaluation respawns the pool transparently.  Also
    registered with [at_exit]. *)

val fixpoint :
  ?stop:(Fact.t -> bool) ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  Instance.t
(** Least fixpoint, as {!Dl_eval.fixpoint}.  [stop] is probed on every
    newly derived fact; returning [true] aborts the evaluation after the
    current round's barrier with the facts derived so far.  [cancel] is
    probed at every round boundary, on the coordinating thread, while the
    pool is parked: a cancelled token raises {!Dl_cancel.Cancelled}
    leaving the pool reusable and every shared cache complete. *)

val fixpoint_delta :
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  old:Instance.t ->
  delta:Instance.t ->
  Instance.t * Instance.t
(** Delta-start semi-naive rounds with the same sharding as {!fixpoint};
    contract as {!Dl_eval.fixpoint_delta}. *)

val eval : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array list
(** All goal tuples, via the full parallel fixpoint. *)

val holds : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array -> bool
(** Membership of one goal tuple, early-stopping. *)

val holds_boolean : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool
(** Goal-relation nonemptiness, early-stopping. *)

(** {2 Long-lived workers}

    The epoch pool above runs one batch at a time with the caller
    participating; servers instead need domains that run their own
    loops — connection multiplexers — for the whole process lifetime.
    {!spawn_workers} is the handle for those: it shares the pool's
    domain-count clamp but nothing else, and the two kinds compose
    (a spawned worker must never call into the epoch pool — pool entry
    points are coordinator-only). *)

type workers

val spawn_workers : int -> (int -> unit) -> workers
(** [spawn_workers n body] spawns [n] domains (clamped to [1, 64]),
    each running [body i] with its index [i].  The bodies run until
    they return; arrange their termination yourself (a stop flag they
    poll), then {!join_workers}. *)

val worker_count : workers -> int
(** The clamped number of spawned domains. *)

val join_workers : workers -> unit
(** Block until every worker body returns, then re-raise the first
    exception any of them died with (after joining all). *)

val run_tasks : (unit -> unit) list -> unit
(** Drain independent tasks across the worker pool (the calling thread
    included), off a shared atomic counter; returns when all have run.
    This is the request service's dispatch primitive: tasks must be
    mutually independent and confine their writes to data they own —
    shared read-only structures (instances, compiled rules) must have
    their caches pre-built on the calling thread first, exactly as the
    fixpoint rounds pre-warm indexes before sharding.  An exception in a
    task is re-raised after the batch completes ([] and singleton lists
    bypass the pool entirely). *)
