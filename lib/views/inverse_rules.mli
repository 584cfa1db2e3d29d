(** The inverse-rules algorithm of Duschka–Genesereth–Levy [14], as
    described in the paper's appendix ("Rewritability results inherited
    from prior work").

    Given a Datalog query [Q] over the base schema and a collection of
    {b CQ} views, the algorithm produces a Datalog query over the view
    schema computing the certain answers of [Q] w.r.t. the views
    (Theorem 10).  When [Q] is monotonically determined over the views the
    result is an exact rewriting; when [Q] is frontier-guarded the
    {!rewrite} output is frontier-guarded as well (each rule is guarded by
    a view atom, as in the appendix's Example 5).

    Pipeline: skolemized inverse rules → defunctionalization via annotated
    predicates → frontier-guarding.  Terms never nest (inverse-rule heads
    are the only place skolems are introduced, and query rules are
    function-free), so annotations assign each variable either the plain
    shape or a single skolem symbol. *)

type annotation = Plain | Sk of string * int
(** The shape of a defunctionalized position: either a single base-domain
    variable, or the skolem function of that name and arity applied to the
    view's distinguished variables. *)

val skolem_name : view:string -> var:string -> string

val rewrite : ?guard:bool -> Datalog.query -> View.collection -> Datalog.query
(** The defunctionalized certain-answer program, a Datalog query over the
    view schema.  With [guard] (default true) every rule is conjoined with
    the guarding view atom, making the output frontier-guarded whenever the
    input query is.
    @raise Unsupported.Error when the query or views fall outside the
    algorithm's scope: non-CQ view definitions, constants in rule bodies
    or view definitions, or repeated variables in rule heads. *)

val certain_answers :
  Datalog.query -> View.collection -> Instance.t -> Const.t array list
(** Certain answers of [Q] w.r.t. the views over an arbitrary instance of
    the view schema (Theorem 10): evaluates the {!rewrite} program. *)
