(** Strategy-routing facade over the Datalog evaluators.

    Decision procedures ({!Md_tests}, separators, certain-answer
    evaluation, containment) call evaluation through this module so that
    one process-wide switch — or a per-call [?strategy] — selects the
    engine.

    {2 The strategy contract}

    All three strategies compute the same answers: for every query [q],
    instance [i] and tuple [t], [eval], [holds] and [holds_boolean] agree
    across strategies (this is enforced by the qcheck differential suites
    in [test/test_datalog.ml], [test/test_magic.ml] and
    [test/test_vm.ml], 120 random
    program/instance pairs each per entry point).  They differ only in
    how the fixpoint is computed:

    - {!Naive} — the seed's scan-based, textual-order, naive-iteration
      evaluator ({!Dl_eval.fixpoint_naive}).  Slowest by far; exists as
      the differential-testing oracle.  Use it when you want the
      least-clever execution imaginable.
    - {!Magic} — the magic-sets demand transformation ({!Dl_magic})
      composed with the semi-naive engine.  Wins when the goal binds
      constants (point queries: ~50× on [engine/tc256-point] in
      [BENCH_eval.json]) because bottom-up rounds then derive only
      demanded facts; loses ~2× on all-free Boolean goals, where the
      extra magic rules prune nothing.  Falls back to [Vm] when the
      goal is extensional ({!Dl_magic.applicable} is false).
    - {!Vm} — the default: semi-naive rounds ({!Dl_semi}) with early
      stop on goal checks, each rule matched by static join plans
      ({!Dl_plan.plan}) lowered to flat register bytecode executed by a
      tight dispatch loop ({!Dl_vm}).  The atom order is fixed at compile
      time; only the index-probe position is chosen per execution.  It
      probes cancellation {e inside} a round (a [cancel-probe] opcode on
      every cursor advance), so deadlines interrupt long rounds
      mid-enumeration.

    {2 Determinism}

    [eval] returns the goal tuples of the {e least fixpoint}, which is
    unique; all strategies therefore return the same tuple set.
    [holds]/[holds_boolean] may stop evaluation early; the facts
    materialized at that point differ between strategies, but the
    Boolean verdict never does.

    {2 Thread safety}

    Every strategy may run on any domain: the compile cache ({!Dl_vm})
    and the demand-transformation cache ({!Dl_magic}) are
    mutex-guarded.  Lazily built instance indexes are not, so one
    instance must not be evaluated on two domains at once (the service
    serializes per session and groups its batch pool by instance).  The
    process-wide default is an [Atomic.t] (so concurrent [set_default]
    is a race only on {e which} engine runs, never on its answer, and
    each top-level call reads the default exactly once — not once per
    fixpoint round). *)

type strategy = Naive | Magic | Vm

val to_string : strategy -> string
val of_string : string -> strategy option

val all : strategy list
(** All strategies, for CLI enums and ablation loops.  [to_string],
    [of_string], [all] and the MONDET_ENGINE warning text all derive
    from one internal registry, so they can never disagree. *)

val default : unit -> strategy
val set_default : strategy -> unit
(** The process-wide default used when [?strategy] is omitted.  Initially
    {!Vm}, unless the [MONDET_ENGINE] environment variable names
    another strategy.  A per-call [?strategy] always wins over the
    default; the default is read once per top-level call, so a concurrent
    [set_default] can never make one evaluation mix strategies across
    rounds. *)

val fixpoint :
  ?strategy:strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  Instance.t
(** The materialized least fixpoint itself (the input instance extended
    with every derivable IDB fact).  [Magic] falls back to [Vm]:
    with no goal there is no demand pattern to specialize for. *)

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
    firing path of the incremental-maintenance layer ({!Dl_incr}), so
    every strategy serves maintenance fixpoints; [Naive] recomputes from
    scratch (the maintenance differential oracle), [Magic] falls back to
    [Vm] as for {!fixpoint}. *)

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
(** Membership of one goal tuple.  Under [Magic] this binds every goal
    position in the demand pattern, so only derivations consistent with
    the tuple are explored. *)

val holds_boolean :
  ?strategy:strategy -> ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool
(** The Boolean query is true (its goal relation is nonempty). *)

val contained_cq_in :
  ?strategy:strategy -> ?cancel:Dl_cancel.t -> Cq.t -> Datalog.query -> bool
(** CQ ⊆ Datalog containment via the canonical-database check. *)
