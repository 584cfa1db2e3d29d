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

    Every stratum runs Backward/Forward (B/F) deletion (Motik, Nenov,
    Piro and Horrocks, "Maintenance of Datalog materialisations
    revisited", AIJ 2019), then closes under insertions.  Each stratum
    fact whose old derivations lost support is first searched for an
    alternative proof: backward through its old derivations that avoid
    deleted facts, down to base-asserted facts and surviving lower
    facts, and forward from every newly proved fact to the searched
    facts waiting on it.  Only facts left unproved are deleted, and
    their deletion queues the next candidates — so unlike
    delete-and-rederive nothing is over-deleted and then derived again,
    and a fact whose only support is a cycle through itself is still
    deleted.  In a non-recursive stratum no body atom reads the stratum,
    so each candidate's search is one head-seeded run that stops at its
    first surviving derivation.  Insertions (lower-strata additions and
    asserted seeds) then run a delta fixpoint —
    {!Dl_engine.fixpoint_delta}, so the engine and the naive oracle both
    serve maintenance fixpoints, reusing the warm {!Instance.union} and
    {!Instance.diff} paths and incremental fingerprints.  The search
    runs {!Dl_vm} programs: the delta-position variants that queue
    candidates, and the head- and body-seeded runs.

    {2 Ownership and threading}

    A [t] is single-owner mutable state: exactly one thread may call
    {!assert_facts}/{!retract_facts} at a time, and nobody may read
    {!full} concurrently with a mutation.  The service upholds this by
    storing materializations inside {!Svc_session} and touching them
    only under the session's whole-request lock.  The instances returned
    by {!base} and {!full} are immutable snapshots — safe to keep across
    later mutations.

    {2 Cancellation}

    Both mutators take a {!Dl_cancel} token, probed per stratum, per
    deletion round and fact searched for an alternative proof, and at
    every delta-fixpoint round.  A mutation is {e atomic}: it either
    completes (base and fixpoint both updated) or raises, in which case
    base and fixpoint are left as they were and the [t] stays usable —
    every stratum works on persistent instances, and the new base and
    fixpoint are written only after the last one.  A later mutation, a
    retry of the cancelled one included, starts from the old state. *)

type t

val create :
  ?strategy:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  t
(** Materialize the fixpoint of the program over the instance (one
    {!Dl_engine.fixpoint} of the whole program) and stratify the program
    for later repairs.  [strategy] selects the {!Dl_engine} strategy used
    for that fixpoint and for every later maintenance fixpoint: the
    engine ([Vm], the default) or the naive oracle. *)

val program : t -> Datalog.program
val strategy : t -> Dl_engine.strategy option

val base : t -> Instance.t
(** The current base (extensional) instance: the loaded facts as edited
    by assertions and retractions, {e without} derived facts. *)

val full : t -> Instance.t
(** The maintained fixpoint: {!base} extended with every derivable IDB
    fact.  Equal to [Dl_engine.fixpoint (program t) (base t)] — the
    invariant the qcheck differential suite checks after every
    mutation. *)

val apply : ?cancel:Dl_cancel.t -> t -> adds:Fact.t list -> dels:Fact.t list -> unit
(** Apply a combined edit — assertions and retractions together — in
    {e one} maintenance pass: the whole payload is normalized into a
    single add-delta and a single delete-delta, and every stratum runs
    its B/F repair once over the coalesced deltas (never fact-by-fact).
    This is what makes batch edits scale: a 32-edge pendant chain
    asserted through [apply] costs one delta fixpoint, not 32.
    [assert_facts] and [retract_facts] are thin wrappers.  Both lists
    are normalized against the {e pre-edit} base — asserting a present
    fact and retracting an absent one are no-ops — so a fact named on
    both sides flips its base membership; don't do that. *)

val assert_facts : ?cancel:Dl_cancel.t -> t -> Fact.t list -> unit
(** Add the facts to the base and repair the fixpoint.  Facts already in
    the base are no-ops; asserting a fact that was only {e derived} so
    far does extend the base (it survives retraction of its former
    support). *)

val retract_facts : ?cancel:Dl_cancel.t -> t -> Fact.t list -> unit
(** Remove the facts from the base and repair the fixpoint.  Retracting
    a fact that was never asserted is a no-op; retracting a base fact
    that is also derivable keeps it in {!full} (membership is
    [base ∨ derived]). *)

type repair = {
  checked : int;  (** stratum facts searched for an alternative proof *)
  proved : int;  (** of those, facts found (or kept) derivable *)
  deleted : int;  (** facts removed by the deletion pass *)
}

val last_repair : t -> repair
(** Backward/Forward counters of the last {!apply}, summed over all
    strata (all zero when no stratum fact lost support).  [deleted]
    counts facts the deletion pass removed before the insertion fixpoint
    ran — on a pure retraction exactly the facts lost. *)

val strata : t -> string list list
(** The stratification, in processing order: each stratum's IDB
    predicates, sorted.  Exposed for tests and diagnostics. *)
