(** Incremental view maintenance: materialized Datalog fixpoints kept
    consistent under fact assertion and retraction.

    A {!t} pairs a program with a base instance and its materialized
    least fixpoint.  {!assert_facts} and {!retract_facts} edit the base
    and repair the fixpoint {e incrementally} — cost proportional to the
    consequences of the change, never a recomputation from scratch —
    which is what turns the service's mutation verbs into
    microsecond-scale updates against big sessions.

    {2 Algorithm}

    The program is stratified into the condensation of its IDB
    dependency graph ({!Datalog.depends_on}), processed in topological
    order.  (The programs here are positive, so this is not the
    negation-driven stratification of the literature — and not
    {!Dl_normalize}, which normalizes {e rule shape} for MDL: it is the
    SCC decomposition that lets each maintenance step see a fully
    repaired lower state.)  Membership of a fact is [base ∨ derived]:
    retracting a base fact that is still derivable, or asserting one
    that was already derived, changes nothing downstream.

    - {e Non-recursive strata} (single predicate, no self-dependency)
      keep a per-fact {e derivation count}: the number of
      (rule, body-binding) pairs producing the fact.  A change in the
      inputs fires two semi-naive-split passes — one enumerating lost
      derivations against the old state, one enumerating gained
      derivations against the new — each derivation counted exactly
      once; membership flips exactly when the count crosses zero (and
      the fact is not base-asserted).
    - {e Recursive strata} run Backward/Forward (B/F) deletion (Motik,
      Nenov, Piro and Horrocks, "Maintenance of Datalog materialisations
      revisited", AIJ 2019), then close under insertions.  Every stratum
      fact whose old derivations lost support is first searched for an
      alternative proof: backward through its old derivations that avoid
      deleted facts, down to base-asserted facts and surviving lower
      facts, and forward from every newly proved fact to the searched
      facts waiting on it.  Only facts left unproved are deleted, and
      their deletion queues the next candidates — so unlike
      delete-and-rederive nothing is over-deleted and then derived
      again, and a fact whose only support is a cycle through itself is
      still deleted.  Insertions (lower-strata additions and asserted
      seeds) then run a delta fixpoint — {!Dl_engine.fixpoint_delta}, so
      every strategy serves maintenance fixpoints, reusing the warm
      {!Instance.union} and {!Instance.diff} paths and incremental
      fingerprints.  The counting passes and the Backward/Forward
      search run {!Dl_vm} programs: the delta-position variants, and
      the head- and body-seeded runs.

    {2 Ownership and threading}

    A [t] is single-owner mutable state: exactly one thread may call
    {!assert_facts}/{!retract_facts} at a time, and nobody may read
    {!full} concurrently with a mutation.  The service upholds this by
    storing materializations inside {!Svc_session} and touching them
    only under the session regime of the entry point in use (the
    concurrent path's whole-request session lock, or the
    single-coordinator discipline).  The instances returned by {!base}
    and {!full} are immutable snapshots — safe to keep across later
    mutations.

    {2 Cancellation}

    Both mutators take a {!Dl_cancel} token, probed per stratum, per
    deletion round and fact searched for an alternative proof, and at
    every delta-fixpoint round.  A mutation is {e atomic}: it either
    completes (base and fixpoint both updated) or raises, in which case
    the base is untouched but internal tables may be half-repaired — the
    [t] is poisoned ({!valid} becomes [false] and further mutations
    raise [Invalid_argument]).  Callers drop a poisoned materialization
    and rebuild from {!create}; the service maps this to its usual
    timeout-never-poisons-caches rule. *)

type t

val create :
  ?strategy:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  t
(** Materialize the fixpoint of the program over the instance and set up
    the maintenance bookkeeping (stratification, derivation counts).
    [strategy] selects the {!Dl_engine} strategy used for recursive
    strata now and for every later maintenance fixpoint; default is the
    process default.  Cost is comparable to one cold
    {!Dl_engine.fixpoint}. *)

val program : t -> Datalog.program
val strategy : t -> Dl_engine.strategy option

val base : t -> Instance.t
(** The current base (extensional) instance: the loaded facts as edited
    by assertions and retractions, {e without} derived facts. *)

val full : t -> Instance.t
(** The maintained fixpoint: {!base} extended with every derivable IDB
    fact.  Equal to [Dl_engine.fixpoint (program t) (base t)] whenever
    {!valid} — the invariant the qcheck differential suite checks after
    every mutation. *)

val valid : t -> bool
(** [false] once a mutation was cancelled mid-repair; the only remedy is
    to rebuild with {!create}. *)

val apply : ?cancel:Dl_cancel.t -> t -> adds:Fact.t list -> dels:Fact.t list -> unit
(** Apply a combined edit — assertions and retractions together — in
    {e one} maintenance pass: the whole payload is normalized into a
    single add-delta and a single delete-delta, and every stratum runs
    its counting or B/F repair once over the coalesced deltas (never
    fact-by-fact).  This is what makes batch edits scale: a 32-edge
    pendant chain asserted through [apply] costs one delta fixpoint, not
    32.  [assert_facts] and [retract_facts] are thin wrappers.  Both
    lists are normalized against the {e pre-edit} base — asserting a
    present fact and retracting an absent one are no-ops — so a fact
    named on both sides flips its base membership; don't do that. *)

val assert_facts : ?cancel:Dl_cancel.t -> t -> Fact.t list -> unit
(** Add the facts to the base and repair the fixpoint.  Facts already in
    the base are no-ops; asserting a fact that was only {e derived} so
    far does extend the base (it survives retraction of its former
    support).  Raises [Invalid_argument] if the materialization is not
    {!valid}. *)

val retract_facts : ?cancel:Dl_cancel.t -> t -> Fact.t list -> unit
(** Remove the facts from the base and repair the fixpoint.  Retracting
    a fact that was never asserted is a no-op; retracting a base fact
    that is also derivable keeps it in {!full} (membership is
    [base ∨ derived]).  Raises [Invalid_argument] if not {!valid}. *)

type repair = {
  checked : int;  (** stratum facts searched for an alternative proof *)
  proved : int;  (** of those, facts found (or kept) derivable *)
  deleted : int;  (** facts removed by the deletion pass *)
}

val last_repair : t -> repair
(** Backward/Forward counters of the last {!apply} (summed over the
    recursive strata; all zero when it deleted nothing there).  [deleted]
    counts facts the deletion pass removed before the insertion fixpoint
    ran — on a pure retraction exactly the facts lost. *)

val strata : t -> (string list * bool) list
(** The stratification, in processing order: each stratum's IDB
    predicates and whether it is recursive (maintained by B/F deletion
    and a delta fixpoint rather than counting).  Exposed for tests and diagnostics. *)
