(** Decision procedures for monotonic determinacy (paper §5).

    The exact procedures implement Theorem 5 (and its UCQ extension): for a
    Boolean CQ/UCQ query [Q] over arbitrary Datalog views, monotonic
    determinacy is equivalent to the containment [Q'' ⊆ Q], where [Q''] is
    the Datalog query obtained by evaluating the simple forward-backward
    rewriting [V(Q)] over the view programs.  The containment is decided by
    automata: the NTA capturing the expansions of [Q''] (Prop. 3)
    intersected with the complement of the CQ-satisfaction automaton of
    [Q], then emptiness (the Chaudhuri–Vardi recipe run on tree codes).

    For query/view pairs outside the exactly-decidable fragments we fall
    back on the bounded canonical-test search of {!Md_tests} (sound for
    refutation; bounded-complete for confirmation). *)

val compose_with_views : Datalog.query -> View.collection -> Datalog.query
(** [Q'' = (Π_V ∪ {Goal'' ← V(Q)}, Goal'')]; requires the query to be a
    single CQ or UCQ goal over the base schema (the paper's [V(Q)]
    construction, Prop. 8). *)

val datalog_contained_in_cq : Datalog.query -> Cq.t -> bool
(** [P ⊆ Q] for Boolean [Q]: every expansion of [P] satisfies [Q]. *)

val datalog_contained_in_ucq : Datalog.query -> Ucq.t -> bool

val cq_query : Cq.t -> View.collection -> bool
(** Theorem 5: monotonic determinacy of a Boolean CQ over Datalog views.
    Exact. *)

val ucq_query : Ucq.t -> View.collection -> bool
(** The UCQ extension of Theorem 5.  Exact. *)

type verdict =
  | Determined  (** exact: monotonically determined *)
  | Not_determined_cert of Md_tests.test option
      (** not determined; with a canonical-test certificate if produced by
          the bounded search *)
  | Bounded_no_failure of int
      (** inexact fragment: no failing test among the [n] generated *)

val decide :
  ?max_depth:int ->
  ?view_depth:int ->
  ?engine:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  View.collection ->
  verdict
(** Dispatcher: uses the exact procedure when the query is a CQ/UCQ
    (classified by {!Dl_fragment.classify}); otherwise the bounded test
    search, whose per-test evaluation uses [engine] (default: the
    process-wide {!Dl_engine} strategy).  [cancel] reaches the bounded
    search only — the exact automata path is short and not
    cancellation-aware. *)

val pp_verdict : verdict Fmt.t
