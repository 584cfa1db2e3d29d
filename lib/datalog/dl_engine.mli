(** The front door for Datalog evaluation.

    Decision procedures ({!Md_tests}, separators, certain-answer
    evaluation, containment) call evaluation through this module.  There
    is one engine, and no switch to choose another: [?strategy] exists
    only to select the naive oracle for differential tests.

    {2 The engine}

    Semi-naive rounds ({!Dl_semi}) with early stop on goal checks, each
    rule matched by static join plans ({!Dl_plan.plan}) lowered to flat
    register bytecode executed by a tight dispatch loop ({!Dl_vm}).  The
    atom order is fixed at compile time; only the index-probe position
    is chosen per execution.  It probes cancellation {e inside} a round
    (a [cancel-probe] opcode on every cursor advance), so deadlines
    interrupt long rounds mid-enumeration.

    {2 The planner}

    {!holds} applies the magic-sets rewrite ({!Dl_magic}) per goal.  It
    runs {!Dl_magic.holds} exactly when
    - the goal tuple is non-empty,
    - the goal is intensional ({!Dl_magic.applicable}), and
    - no adorned predicate of the transform is all-free
      ([Dl_magic.prunes]: every [P#…] of positive arity keeps a bound
      position).

    Then bottom-up rounds derive only facts the tuple demands: tc,
    left-recursive tc and same-generation point goals run 30× to four
    orders of magnitude faster than on the VM (EXPERIMENTS.md, E14).  When some adorned
    predicate is all-free (anchored RPQ programs, for one) the rewrite
    derives that predicate in full plus its magic rules, up to 2.9×
    slower, so the plain VM runs instead; so it does for every other
    call — {!eval}, {!holds_boolean}, {!fixpoint}, {!fixpoint_delta}, and
    {!holds} on an extensional goal.  The choice reads only the program
    and the goal binding, and the transform cache keeps it.

    {2 Strategies}

    - {!Vm} — the engine above, planner included; the default.
    - {!Naive} — the seed's scan-based, textual-order, naive-iteration
      evaluator ({!Dl_eval.fixpoint_naive}).  Slowest by far; exists as
      the differential-testing oracle.

    Both compute the same answers: for every query [q], instance [i] and
    tuple [t], [eval], [holds] and [holds_boolean] agree (enforced by the
    qcheck differential suites in [test/test_datalog.ml],
    [test/test_magic.ml] and [test/test_vm.ml], 120 random
    program/instance pairs each per entry point).

    {2 Determinism}

    [eval] returns the goal tuples of the {e least fixpoint}, which is
    unique.  [holds]/[holds_boolean] may stop evaluation early; the
    facts materialized at that point differ between the arms, but the
    Boolean verdict never does.

    {2 Thread safety}

    Any domain may evaluate: the compile cache ({!Dl_vm}) and the
    demand-transformation cache ({!Dl_magic}) are mutex-guarded.  Lazily
    built instance indexes are not, so one instance must not be
    evaluated on two domains at once (the service serializes per
    session). *)

type strategy = Naive | Vm

val uses_magic : Datalog.query -> Const.t array -> bool
(** The planner's rule: whether [holds q i tup] (with [Vm]) runs the
    magic arm, {!Dl_magic.holds}.  Depends on [q] and the length of
    [tup] only. *)

val fixpoint :
  ?strategy:strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  Instance.t
(** The materialized least fixpoint itself (the input instance extended
    with every derivable IDB fact). *)

val fixpoint_delta :
  ?strategy:strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  old:Instance.t ->
  delta:Instance.t ->
  Instance.t * Instance.t
(** Delta-start continuation: [old] must already be closed under the
    program; returns [(full, derived)] where [full] is the fixpoint of
    [old ∪ delta] and [derived] the facts beyond [old ∪ delta].  Cost is
    proportional to the derivations touching [delta].  This is the rule
    firing path of the incremental-maintenance layer ({!Dl_incr});
    [Naive] recomputes from scratch (the maintenance differential
    oracle). *)

val eval :
  ?strategy:strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  Instance.t ->
  Const.t array list
(** All goal tuples of the query on the instance.  [cancel] is the
    cooperative cancellation token threaded into the underlying fixpoint,
    probed at semi-naive round boundaries and inside rounds (see
    {!Dl_cancel}); a cancelled
    token raises {!Dl_cancel.Cancelled}. *)

val holds :
  ?strategy:strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  Instance.t ->
  Const.t array ->
  bool
(** Membership of one goal tuple.  With [Vm], the magic arm runs when
    {!uses_magic} says so: only derivations consistent with the tuple
    are explored. *)

val holds_boolean :
  ?strategy:strategy -> ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool
(** The Boolean query is true (its goal relation is nonempty). *)

val contained_cq_in :
  ?strategy:strategy -> ?cancel:Dl_cancel.t -> Cq.t -> Datalog.query -> bool
(** CQ ⊆ Datalog containment via the canonical-database check. *)
