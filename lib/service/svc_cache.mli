(** Structurally-hashed LRU result cache for the decision service.

    Maps keys composed of structural fingerprints (built by
    {!Svc_service}) to response bodies of successful requests.  Bounded
    capacity with least-recently-used eviction; O(1) lookup and insert.

    Domain-safe: every operation takes the cache's internal mutex, so
    the concurrent socket connection workers share one cache.  The critical
    sections are pointer swaps only — no evaluation ever runs under the
    lock. *)

type t

val create : int -> t
(** [create capacity].  @raise Invalid_argument if [capacity < 1]. *)

val find : t -> string -> string option
(** Lookup; counts a hit (and refreshes recency) or a miss. *)

val add : t -> string -> string -> unit
(** Insert or refresh a binding, evicting the least-recently-used entry
    when over capacity.  Does not count a hit or a miss. *)

val mem : t -> string -> bool
(** Presence check without touching counters or recency. *)

val fold_lru : t -> (string -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold over all bindings, least-recently-used first, holding the
    cache lock for the whole traversal — so replaying the folded
    sequence through {!add} reproduces contents and recency order
    exactly (this is what the {!Svc_persist} snapshot does).  [f] must
    not call back into the cache (the mutex is not reentrant). *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
