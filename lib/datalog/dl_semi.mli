(** Semi-naive evaluation: the one round loop, over the {!Dl_vm}
    bytecode matcher and a per-call store of derived tuples
    ({!Dl_store}).

    [fixpoint p i] is the paper's [FPEval(Π, I)]: the minimal
    IDB-extension of [I] satisfying all rules of [Π].

    A round fires {e units}.  A unit is a rule and a delta position: the
    body atom at the delta position reads the round's delta, atoms left
    of it read [old] (the facts before the round), atoms right of it
    read [full = old ∪ delta], so each derivation using a delta fact is
    found exactly once per round.  A unit runs its rule's delta-position
    program ([rp.semi.(pos)]).

    The first round takes the input (with the heads of bodiless rules)
    as its delta; together with [old] it becomes the store's frozen
    base.  Every later fact is a tuple in the append-only tail of its
    head relation: the store keeps a derived tuple once, if neither the
    base nor the tail holds it, and shows it to no unit before the round
    ends, when it becomes part of the next round's delta.  Rounds build
    no {!Instance}: [fixpoint] and [fixpoint_delta] build theirs once,
    after the last round, and [eval], [holds] and [holds_boolean] read
    the store.  The loop probes cancellation at every round boundary
    (and the VM inside rounds), and stops on an empty delta or once a
    [stop] predicate accepts a derived fact.  The units of a round run
    in rule order on the calling thread. *)

val iter_units :
  Dl_vm.rule_prog list ->
  old:Instance.t ->
  delta:Instance.t ->
  (Dl_vm.rule_prog -> int -> bool) ->
  unit
(** [iter_units rules ~old ~delta f] calls [f rule pos] on every unit of
    a round over instances, in rule order, until [f] answers [false]:
    the enumeration {!Dl_incr}'s Backward/Forward search runs to queue
    the heads of lost derivations.  The round loop walks its store the
    same way.
    Units that cannot match are skipped: every unit of a rule with a
    body relation that has no fact in [old ∪ delta] (the unit's
    [full]), those whose position's relation has no fact in [delta], and
    those with an atom left of the position whose relation has no fact
    in [old]. *)

val fixpoint :
  ?stop:(Fact.t -> bool) ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  Instance.t
(** Least fixpoint from scratch: the input instance extended with IDB
    facts.  The first round takes the input, plus the heads of bodiless
    rules, as the delta over an empty [old].  Accepting a fact, [stop]
    ends the evaluation with the facts derived so far, those of the
    stopping round included.  [cancel] is probed on entry, at every
    round boundary and inside rounds; a cancelled token raises
    {!Dl_cancel.Cancelled} and leaves no shared state half-written (the
    store is the call's own). *)

val fixpoint_delta :
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  old:Instance.t ->
  delta:Instance.t ->
  Instance.t * Instance.t
(** [fixpoint_delta p ~old ~delta] resumes the semi-naive iteration
    mid-run: [old] must be closed under the rules of [p] (no rule firing
    entirely within [old] derives a missing fact) and [delta] is a set of
    newly arrived facts.  Returns [(full, derived)] where [full] is the
    least fixpoint of [p] over [old ∪ delta] and [derived] are the facts
    of [full] beyond [old ∪ delta].  This is the insertion path of
    incremental maintenance ({!Dl_incr}): cost is proportional to the
    derivations touching [delta], never to a re-derivation of [old]. *)

val eval : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array list
(** Goal tuples of the query on the instance, sorted by
    {!Fact.compare_args} (the order of {!Instance.tuples}). *)

val holds :
  ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array -> bool
(** True at once if the input (or a bodiless rule) has the goal fact;
    otherwise stops once the tuple is derived. *)

val holds_boolean : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool
(** True at once if the input (or a bodiless rule) has a goal fact;
    otherwise stops at the first derived one. *)
