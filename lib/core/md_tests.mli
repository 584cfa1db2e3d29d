(** Canonical tests for monotonic determinacy (paper §5, Lemma 5).

    A test is a pair [(Qi, D')]: a CQ approximation [Qi] of the query and
    an instance [D'] obtained from the view image [V(Qi)] by replacing
    every view fact with a freshly-instantiated CQ approximation of its
    view definition (the "inverse of the view definition").  [Q] is
    monotonically determined over [V] iff every test satisfies [Q].

    Tests are infinitely many for recursive queries/views; this module
    enumerates them fairly up to depth and count bounds, so a failing test
    is a {e certificate of non-determinacy} (checked by evaluation), while
    exhausting the bounds only certifies determinacy up to those bounds.
    Exact procedures for the decidable fragments live in {!Md_decide}. *)

type test = {
  approx : Cq.t;  (** the approximation [Qi] *)
  image : Instance.t;  (** [V(Canondb(Qi))] over the view schema *)
  chased : Instance.t;  (** the instance [D'] over the base schema *)
}

val chases :
  ?view_depth:int ->
  ?max_choices_per_fact:int ->
  View.collection ->
  Instance.t ->
  Instance.t Seq.t
(** All instances obtained from a view-schema instance by replacing every
    fact with a freshly-instantiated CQ approximation of its view
    ({!View.approximations}) — the "inverses of view definitions" chase
    of §5.  The sequence is empty when some fact cannot be inverted
    within the depth bound (for CQ/UCQ views whose bodies name no view
    head every fact can).  Staged: [chases views] unfolds the views
    once for any number of images. *)

val tests :
  ?max_depth:int ->
  ?view_depth:int ->
  ?max_choices_per_fact:int ->
  ?max_tests_per_approx:int ->
  Datalog.query ->
  View.collection ->
  test Seq.t
(** All bounded tests.  Defaults: query depth 4, view-definition depth 3,
    4 inverse choices per view fact, 256 choice combinations per
    approximation. *)

val succeeds :
  ?engine:Dl_engine.strategy -> ?cancel:Dl_cancel.t -> Datalog.query -> test -> bool
(** Does [D' ⊨ Q] (the query is Boolean: goal non-emptiness)?  [engine]
    [Naive] selects the oracle instead of the engine for this check. *)

type verdict =
  | Not_determined of test  (** a checked counterexample *)
  | No_failure_up_to of int  (** all [n] generated tests succeed *)

val decide_bounded :
  ?max_depth:int ->
  ?view_depth:int ->
  ?max_choices_per_fact:int ->
  ?max_tests_per_approx:int ->
  ?engine:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  View.collection ->
  verdict
(** [cancel] is probed once per generated test and at every evaluation
    round inside each test; {!Dl_cancel.Cancelled} escapes to the
    caller. *)

val pp_test : test Fmt.t
(** The approximation's body, the image and the chased instance, one
    sorted fact per line under a heading each. *)
