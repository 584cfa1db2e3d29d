(** Strategy-routing facade over the Datalog evaluators.

    Decision procedures ({!Md_tests}, separators, certain-answer
    evaluation, containment) call evaluation through this module so that
    one process-wide switch — or a per-call [?strategy] — selects the
    engine.

    {2 The strategy contract}

    All four strategies compute the same answers: for every query [q],
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
    - {!Indexed} — slot-compiled semi-naive evaluation over per-relation
      secondary indexes, with dynamic most-constrained-first atom
      ordering and early stop on goal checks ({!Dl_eval}).  The default:
      it wins on the paper's workloads (small instances, all-free
      Boolean goals) and has no setup cost beyond rule compilation
      (cached per program).
    - {!Magic} — the magic-sets demand transformation ({!Dl_magic})
      composed with the indexed engine.  Wins when the goal binds
      constants (point queries: ~50× on [engine/tc256-point] in
      [BENCH_eval.json]) because bottom-up rounds then derive only
      demanded facts; loses ~2× on all-free Boolean goals, where the
      extra magic rules prune nothing.  Falls back to [Indexed] when the
      goal is extensional ({!Dl_magic.applicable} is false).
    - {!Vm} — static join plans ({!Dl_plan.plan}) lowered to flat
      register bytecode executed by a tight dispatch loop ({!Dl_vm}).
      The same {!Dl_semi} round loop and early stop as [Indexed], but the atom
      order is fixed at compile time (only the index-probe position is
      chosen per execution), so the per-depth selectivity rescans of the
      interpreted matcher disappear — it wins on recursive workloads
      with deep joins (see [engine/vm-*] in [BENCH_eval.json]).  Also
      the only engine that probes cancellation {e inside} a round
      (a [cancel-probe] opcode on every cursor advance), so deadlines
      interrupt long rounds mid-enumeration.

    {2 Determinism}

    [eval] returns the goal tuples of the {e least fixpoint}, which is
    unique; all strategies therefore return the same tuple set.
    [holds]/[holds_boolean] may stop evaluation early; the facts
    materialized at that point differ between strategies, but the
    Boolean verdict never does.

    {2 Thread safety}

    The facade itself is meant to be called from one coordinating thread:
    the process-wide default is an [Atomic.t] (so concurrent
    [set_default] is a race only on {e which} engine runs, never on its
    answer, and each top-level call reads the default exactly once — not
    once per fixpoint round).  The compile caches behind [Indexed] and
    [Vm] are mutex-guarded ({!Dl_plan}, {!Dl_vm}), but [Magic]'s
    transform cache and lazily built instance indexes are not; worker
    domains run {!pool_strategy}. *)

type strategy = Naive | Indexed | Magic | Vm

val to_string : strategy -> string
val of_string : string -> strategy option

val all : strategy list
(** All strategies, for CLI enums and ablation loops.  [to_string],
    [of_string], [all] and the MONDET_ENGINE warning text all derive
    from one internal registry, so they can never disagree. *)

val pool_strategy : unit -> strategy
(** The strategy service worker domains should run, derived from the
    process default: [Indexed] and [Magic] (whose transform cache is
    unguarded) map to [Vm] (same answers as [Indexed], faster on the
    pool's wide recursive workloads, and the only engine probing
    cancellation inside a round); an explicit [Naive] or [Vm] default
    passes through. *)

val default : unit -> strategy
val set_default : strategy -> unit
(** The process-wide default used when [?strategy] is omitted.  Initially
    {!Indexed}, unless the [MONDET_ENGINE] environment variable names
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
    with every derivable IDB fact).  [Magic] falls back to [Indexed]:
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
    [Indexed] as for {!fixpoint}. *)

val eval :
  ?strategy:strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  Instance.t ->
  Const.t array list
(** All goal tuples of the query on the instance.  [cancel] is the
    cooperative cancellation token threaded into the underlying fixpoint,
    probed at semi-naive round boundaries (see {!Dl_cancel}); a cancelled
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
