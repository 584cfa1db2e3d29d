(** Named service sessions.

    A session holds the programs, view collections and instances that
    were [load]ed into it; query verbs refer to them by name.  Loads
    replace silently (reload-to-update is the intended workflow).

    Each session owns a mutex.  {!Svc_service} wraps the whole handling
    of every request against a session in {!with_lock}, on every entry
    point, serializing requests per session: that is the
    synchronization that makes the session-owned mutable structures —
    above all the instances' lazily built index caches — safe to touch
    from many domains, as the TCP and Unix-socket workers do. *)

type t

exception Missing of string
(** Raised by the lookup functions; the message names the missing object
    and the session. *)

val create : string -> t
val name : t -> string

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] holding the session's mutex (released on exception).  Not
    reentrant. *)

val over_quota : t -> limit:int -> window:float -> now:float -> bool
(** Count one request against the session's fixed-window quota and
    report whether it overflowed: at most [limit] requests per [window]
    seconds, counted in windows anchored at the first request after the
    previous window lapsed.  Call with the session lock held. *)

val set_program : t -> string -> Datalog.query -> unit
val set_views : t -> string -> View.collection -> unit

val set_instance : t -> string -> Instance.t -> unit
(** Store (or replace) an instance under the name.  Replacement is
    wholesale, so every materialization registered over the name is
    dropped; the mutation verbs use {!update_instance} instead. *)

val update_instance : t -> string -> Instance.t -> unit
(** Like {!set_instance} but keeps the name's materializations: the
    mutation path edits the instance {e through} them
    ({!Dl_incr.assert_facts} / [retract_facts]), so after a successful
    repair they are already consistent with the value published here. *)

val program : t -> string -> Datalog.query
val views : t -> string -> View.collection
val instance : t -> string -> Instance.t

val set_rpqs : t -> string -> (string * Rpq.t) list -> unit
(** Register an [rpq-load]'s parsed definitions: each definition
    individually (usable wherever a verb takes an RPQ name), beside its
    translation to Datalog ({!Rpq_translate.translate}), made once here
    and evaluated by every [rpq-eval] of the name; and the ordered list
    as a whole under the load's own name (usable as the view set of
    [rpq-rewrite], whose {!Rpq_views.rewrite} translates the views
    with [R_max]).  A definition the translation rejects still loads:
    every evaluation of it answers the error. *)

val rpq : t -> string -> Rpq.t * Rpq_translate.t
(** The named definition and its translation. *)

val rpq_set : t -> string -> (string * Rpq.t) list

(** {2 Materialized fixpoints}

    Incrementally maintained fixpoints ({!Dl_incr.t}) over a named
    instance, keyed by a caller-chosen string (the service uses the
    program's structural fingerprint, so a reloaded program never hits a
    stale entry).  At most a small fixed number are kept per instance
    (oldest evicted): each one is repaired on every mutation of the
    instance.  Like all session state, access only under {!with_lock}. *)

val mat : t -> string -> string -> Dl_incr.t option
(** [mat t inst key]: the materialization registered for [inst] under
    [key], if any.  Callers must still check that {!Dl_incr.base}
    matches the current instance. *)

val set_mat : t -> string -> string -> Dl_incr.t -> unit
(** Register a materialization (replacing any entry with the same key,
    evicting the oldest beyond the per-instance cap). *)

val mats : t -> string -> (string * Dl_incr.t) list
(** All materializations registered for the instance name, newest
    first. *)

val set_mats : t -> string -> (string * Dl_incr.t) list -> unit
(** Replace the instance's whole materialization list (the mutation path
    uses this to prune entries that went stale). *)
