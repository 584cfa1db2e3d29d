(** Rewriting algorithms (paper §4).

    - Proposition 8: a monotonically-determined CQ (UCQ) over arbitrary
      Datalog views has the polynomial-size CQ (UCQ) rewriting [V(Q)].
    - Inverse rules (appendix, after [14]): a Datalog query over CQ views
      has a Datalog certain-answer program, which is an exact rewriting
      under monotonic determinacy and is frontier-guarded when the query
      is (re-exported from {!Inverse_rules}).
    - The §3 forward–backward pipeline: for atomic views (full copies of
      the base relations, possibly renamed) we run it literally — forward
      map (Prop. 3), projection to the view signature (Prop. 5), backward
      map — producing a Datalog rewriting (the degenerate but fully
      faithful instance of Theorem 1's construction; the general FGDL-view
      automaton is discussed in DESIGN.md §5). *)

val prop8_cq : Cq.t -> View.collection -> Cq.t
(** The rewriting [V(Q)] over the view schema, for a Boolean CQ. *)

val prop8_ucq : Ucq.t -> View.collection -> Ucq.t

val inverse_rules : Datalog.query -> View.collection -> Datalog.query
(** Re-export of {!Inverse_rules.rewrite} (guarded). *)

val forward_backward_atomic :
  Datalog.query -> View.collection -> Datalog.query
(** The forward–projection–backward pipeline for a collection of atomic
    views covering every base relation of the query.
    @raise Unsupported.Error otherwise. *)

val verify_boolean :
  Datalog.query -> Datalog.query -> View.collection -> Instance.t list -> bool
(** Differential check of a candidate Boolean rewriting [r]:
    [Q(I) = r(V(I))] on every sample instance. *)

val random_instances :
  ?n:int -> ?size:int -> seed:int -> Schema.t -> Instance.t list
(** Random instances over a schema, for differential testing. *)
