(** Separators (paper §2 and §7).

    A separator of [Q] w.r.t. [V] is any function on view-schema instances
    agreeing with [Q] through [V] — not necessarily expressible in a logic.
    Datalog rewritings give PTime separators; Theorem 10 (appendix) shows
    the inverse-rules certain-answer program is a separator whenever [Q]
    is monotonically determined; Theorem 9 shows no computable time bound
    covers all Datalog query/view pairs. *)

val certain_answers_cq_views :
  ?engine:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  View.collection ->
  Instance.t ->
  bool
(** The inverse-rules separator for CQ views (Theorem 10): certain answers
    of the Boolean query over an arbitrary view-schema instance.
    [engine] [Naive] selects the oracle instead of the engine; [cancel]
    is the cooperative cancellation token threaded into evaluation
    (likewise below). *)

type chase_mode = Any | All

val chase_separator :
  ?mode:chase_mode ->
  ?view_depth:int ->
  ?max_choices_per_fact:int ->
  ?max_chases:int ->
  ?engine:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Datalog.query ->
  View.collection ->
  Instance.t ->
  bool
(** The §7 observation: for Datalog queries over UCQ (or CQ) views there
    is a separator in NP and one in co-NP, because every view image is the
    image of a small instance — namely a chase of the image through the
    inverses of the view definitions.  Under monotonic determinacy the
    existential ([Any], the NP one) and universal ([All], the co-NP one)
    chase separators coincide and equal the query through the views:
    the witness chase maps homomorphically into any preimage, and any
    chase's image contains the input.  For recursive Datalog views the
    chase set is bounded by [view_depth] and the result is approximate;
    for CQ/UCQ views it is exact.

    The taken chase prefix is memoized (one slot, keyed on the bounds,
    the view collection and the image), so checking [Any] and [All] on
    the same image — or replaying the separator — does not redo the
    inverse-view chase.

    [cancel] is probed before every chase step (and at round boundaries
    inside each chase's evaluation); an abort leaves the memoized prefix
    fully instantiated, so a retry resumes where the abort struck. *)

val brute_force_certain :
  ?max_preimages:int ->
  ?engine:Dl_engine.strategy ->
  Datalog.query ->
  View.collection ->
  candidates:Instance.t list ->
  Instance.t ->
  bool option
(** A reference implementation of certain answers by explicit preimage
    search among the given candidate base instances: [Some b] if some
    candidate's view image contains the given instance ([b] the conjunction
    of [Q] over the first [max_preimages] such candidates), [None] if no
    candidate matches.  Used only for cross-checking on small cases. *)
