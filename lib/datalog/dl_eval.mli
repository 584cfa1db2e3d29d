(** Bottom-up (semi-naive) evaluation of Datalog programs.

    [fixpoint p i] is the paper's [FPEval(Π, I)]: the minimal IDB-extension
    of [I] satisfying all rules of [Π].  This is the [Indexed] engine:
    the {!Dl_semi} round loop with the interpreted {!slots} matcher. *)

val fixpoint : ?cancel:Dl_cancel.t -> Datalog.program -> Instance.t -> Instance.t
(** Least fixpoint; returns the input instance extended with IDB facts.
    [cancel] is probed at every semi-naive round boundary (and once on
    entry): a cancelled or expired token raises {!Dl_cancel.Cancelled}
    without corrupting any shared cache. *)

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

val holds : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array -> bool
val holds_boolean : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool

val contained_cq_in : ?cancel:Dl_cancel.t -> Cq.t -> Datalog.query -> bool
(** [contained_cq_in q p] decides [q ⊆ p]: evaluate [p] on the canonical
    database of [q] and test the head tuple. *)

val equivalent_on : Datalog.query -> Datalog.query -> Instance.t list -> bool
(** Differential check: the two queries agree on all given instances. *)

val fixpoint_naive : ?cancel:Dl_cancel.t -> Datalog.program -> Instance.t -> Instance.t
(** Reference implementation: scan-based matching in textual atom order
    and naive (non-incremental) iteration — the seed's evaluator, kept as
    the oracle for differential tests of the indexed engine. *)

val eval_naive : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array list
(** Goal tuples via {!fixpoint_naive}. *)

(** {2 Compiled-rule internals}

    The interpreted matcher over {!Dl_plan}'s slot-compiled rules (layer 1
    of the compile pipeline), exported for {!Dl_incr}, which runs it over
    its own unit walks and seeded searches.  Everything here is
    reentrant: {!run_compiled} allocates its binding array and trail per
    call and only {e reads} the instances it is given (provided their
    relation indexes are already built — see {!Instance.index}; building
    one is a benign cache fill but makes the call a writer). *)

val compile : Datalog.program -> Dl_plan.crule list
(** Slot-compile a program (alias of {!Dl_plan.compile}).  Results are
    cached under physical equality of the program; the cache is
    mutex-guarded, so a worker domain re-entering [compile] is safe —
    compiling on the coordinating thread first merely warms the cache. *)

val run_compiled :
  Dl_plan.crule -> Instance.t array -> (Const.t option array -> bool) -> unit
(** [run_compiled cr sources on_match] enumerates all matches of
    [cr.cbody] where body atom [i] draws its candidate tuples from
    [sources.(i)], most-constrained-first.  [on_match] receives the slot
    bindings and returns [false] to stop the enumeration. *)

val run_seeded :
  Dl_plan.crule ->
  Dl_plan.catom ->
  Const.t array ->
  Instance.t array ->
  (Const.t option array -> bool) ->
  unit
(** [run_seeded cr a tup sources on_match] is {!run_compiled} restricted
    to the matches binding atom [a] — the rule's head or one of its body
    atoms — to the tuple [tup]: [a]'s slots are pre-bound before the body
    is matched (a clash means no match).  A seeded body atom is still
    matched against its source, so [tup] must be in it.  This is the
    goal-directed entry of {!Dl_incr}'s Backward/Forward repair: head
    seeding enumerates the derivations of one fact, body seeding the
    derivations one fact takes part in. *)

val slots : Dl_plan.crule Dl_semi.matcher
(** The interpreted matcher as a {!Dl_semi} unit runner: {!run_compiled}
    with the unit's delta atom reading [delta], atoms left of it [old],
    the rest [full]. *)

val chead_fact : Dl_plan.crule -> Const.t option array -> Fact.t
(** The head fact under a complete binding of the rule's slots. *)

val catom_fact : Dl_plan.catom -> Const.t option array -> Fact.t
(** Any atom's fact under a binding of all its slots. *)
