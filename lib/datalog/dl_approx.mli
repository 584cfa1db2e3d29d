(** CQ approximations of Datalog queries (paper §2, Proposition 1).

    [CQAppr(Π, U(x̄), i)] is defined by induction: at depth 1, bodies of
    [U]-rules without intensional atoms; at depth [i+1], bodies of
    [U]-rules with every intensional atom replaced by one of its
    approximations of depth ≤ [i].  Every output tuple of a Datalog query
    is witnessed by some approximation (Prop. 1), so approximations drive
    the canonical tests of §5.

    A rule head may repeat a variable, as in [V(x,x) ← E(x,y)]: the
    repeated positions share one formal variable, and plugging such an
    approximation into an atom unifies the atom's arguments at those
    positions (a choice whose constants clash is dropped).
    @raise Unsupported.Error if unifying binds a head variable of the
    unfolded predicate to a constant, which a CQ head cannot state. *)

val approximations_of_pred :
  ?max_depth:int ->
  ?max_count:int ->
  Datalog.program ->
  string ->
  Cq.t list
(** Approximations of predicate [p]; the CQ heads are the formal variables
    [p#0 … p#(n-1)], a position that repeats an earlier one repeating its
    variable.  Defaults: depth 4, count 2000.  Deduplicated up to a
    canonical variable renaming. *)

val approximations :
  ?max_depth:int -> ?max_count:int -> Datalog.query -> Cq.t list
(** Approximations of the goal predicate. *)

val complete_unfolding : ?max_count:int -> Datalog.query -> Cq.t list option
(** For a nonrecursive program, the full (finite) set of approximations —
    i.e. the equivalent UCQ.  [None] if the program is recursive or the
    cap is hit. *)

val formal_head : Datalog.program -> string -> string list
(** The formal head variables used by {!approximations_of_pred}. *)

val canonical_string : Cq.t -> string
(** A renaming-invariant (best effort) key used for deduplication. *)
