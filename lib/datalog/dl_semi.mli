(** Semi-naive evaluation: the one round loop, over the {!Dl_vm}
    bytecode matcher.

    [fixpoint p i] is the paper's [FPEval(Π, I)]: the minimal
    IDB-extension of [I] satisfying all rules of [Π].

    A round fires {e units}.  A unit is a rule and a delta position: the
    body atom at the delta position reads the round's delta, atoms left
    of it read [old] (the facts before the round), atoms right of it
    read [full = old ∪ delta], so each derivation using a delta fact is
    found exactly once per round.  A unit runs its rule's delta-position
    program ([rp.semi.(pos)]).  The facts absent from [full], each kept
    once, are the next round's delta, built in bulk at the round's end;
    it is disjoint from [full], so the loop's unions are
    {!Instance.union_disjoint}.  The loop probes cancellation at every
    round boundary (and the VM inside rounds), and stops on an empty
    delta or once a [stop] predicate accepts a derived fact.  The units
    of a round run in rule order on the calling thread. *)

val iter_units :
  Dl_vm.rule_prog list ->
  old:Instance.t ->
  delta:Instance.t ->
  (Dl_vm.rule_prog -> int -> bool) ->
  unit
(** [iter_units rules ~old ~delta f] calls [f rule pos] on every unit of
    a round, in rule order, until [f] answers [false].
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
    ends the evaluation with the facts derived so far.  [cancel] is
    probed on entry, at every round boundary and inside rounds; a
    cancelled token raises {!Dl_cancel.Cancelled} without corrupting any
    shared cache. *)

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
(** Goal tuples of the query on the instance. *)

val holds :
  ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array -> bool
(** Stops once the tuple is derived. *)

val holds_boolean : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool
(** Stops at the first goal fact. *)
