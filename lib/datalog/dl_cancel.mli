(** Cooperative cancellation tokens for long-running decisions.

    Every fixpoint entry point ({!Dl_eval}, {!Dl_semi}, the
    {!Dl_engine} facade) and the chase-based separator checks take an
    optional token and probe it at safe boundaries: the start of each
    semi-naive round, and each chase step; {!Dl_vm} also probes on its
    cursor advances, and the automata emptiness search ([Run.find])
    before each DTA step.  A probe on an expired or cancelled token raises
    {!Cancelled}; because no probe sits inside a cache fill, an abort
    never leaves shared caches (compiled rules, instance indexes,
    memoized chase prefixes) in a half-written state — see DESIGN.md,
    "The cancellation-token contract". *)

type t

exception Cancelled

val none : t
(** The shared never-cancelled token — the default for every [?cancel]
    parameter.  {!cancel} on it is a no-op. *)

val token : unit -> t
(** A manually cancellable token with no deadline. *)

val with_deadline : float -> t
(** Token that expires at the given absolute [Unix.gettimeofday] time. *)

val with_deadline_ms : int -> t
(** Token that expires the given number of milliseconds from now.
    [with_deadline_ms 0] is expired immediately (every probe fires). *)

val cancel : t -> unit
(** Cancel explicitly; threads observing the token see it on their next
    {!check}. *)

val cancelled : t -> bool
(** Has the token been cancelled, or its deadline passed? *)

val check : t -> unit
(** @raise Cancelled iff {!cancelled}. *)

val protect : t -> (unit -> 'a) -> ('a, [ `Cancelled ]) result
(** [protect t f] runs [f], turning a {!Cancelled} escape into
    [Error `Cancelled] (and marking [t] cancelled so later probes agree). *)
