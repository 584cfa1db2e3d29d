(** The naive oracle: the seed's scan-based, textual-order,
    naive-iteration evaluator.

    Nothing here is fast, and nothing is meant to be: it is the
    reference every semi-naive strategy of {!Dl_engine} is tested
    against, and the [Naive] strategy itself.  Evaluation goes through
    {!Dl_engine}. *)

val fixpoint_naive : ?cancel:Dl_cancel.t -> Datalog.program -> Instance.t -> Instance.t
(** Least fixpoint by scan-based matching in textual atom order and
    naive (non-incremental) iteration: the input instance extended with
    every derivable IDB fact.  [cancel] is probed once per iteration. *)

val eval_naive : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array list
(** Goal tuples via {!fixpoint_naive}. *)
