(** The process's OCaml 5 domains, spawned in one place.

    Two kinds share one domain-count clamp:

    - the {e epoch pool}, a persistent pool of [Domain.t] workers that
      drains a batch of independent tasks with the calling thread
      taking part ({!run_tasks}); the service's [batch] misses run on
      it.  It is process-global, sized by {!set_domains} /
      [MONDET_DOMAINS] / [Domain.recommended_domain_count], and resized
      lazily when the requested count changes.  Call it from one
      coordinating thread only;
    - {e long-lived workers} ({!spawn_workers}), domains running their
      own loops for the life of a server: the TCP front-end's
      connection workers.

    Datalog evaluation itself is sequential ({!Dl_semi}); this module
    only runs whole evaluations side by side. *)

val set_domains : int -> unit
(** Request a total worker count for the epoch pool (the coordinating
    thread counts as one worker, so [n - 1] domains are spawned).
    Clamped to [1, 64].  This is what [mondet batch --domains] calls; it
    overrides the [MONDET_DOMAINS] environment variable, which in turn
    overrides [Domain.recommended_domain_count ()]. *)

val domains : unit -> int
(** The effective worker count the next {!run_tasks} batch will use. *)

val shutdown : unit -> unit
(** Join the worker pool (a no-op if none is live).  Idle domains are
    not free: every minor collection synchronizes all live domains, so a
    long single-threaded phase after a batch runs measurably slower
    while the pool idles.  Benchmarks and other timing-sensitive callers
    should [shutdown] when switching back to sequential work; the next
    {!run_tasks} batch respawns the pool transparently.  Also registered
    with [at_exit]. *)

(** {2 Long-lived workers}

    The epoch pool runs one batch at a time with the caller
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
    their caches pre-built on the calling thread first, or be touched by
    one task only.  A raising task does not stop the others: the first
    exception is re-raised once every task has run.  [[]] and singleton
    lists bypass the pool entirely (a single task runs on the calling
    thread). *)
