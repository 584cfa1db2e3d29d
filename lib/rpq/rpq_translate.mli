(** RPQ → linear Datalog, through the {!Dl_engine} facade.

    The translation is the product of an automaton with the edge
    relations: one binary IDB [rpq_sK] per automaton state [K], holding
    the pairs [(x, y)] such that some path [x → y] spells a word taking
    the automaton from a start state to state [K].  The automaton is the
    {e minimal DFA} of the word NFA ({!Rpq_nfa.minimize}), so there is
    one IDB per minimal-DFA state: no dead states and no duplicated
    Thompson states feed the fixpoint.  When the capped subset
    construction gives up, the trimmed NFA is translated instead, so
    the program never outgrows the NFA.  Seed rules read one edge from
    a start-state transition, closure rules extend a state relation by
    one edge, and the goal [rpq_ans] collects the final states — a
    {e linear} program (every rule body has at most one IDB), which the
    engine evaluates round-per-path-length.

    Source-anchored evaluation uses unary state relations [rpq_rK]
    seeded from the reserved EDB [rpq_src]: rule heads cannot carry
    constants, so the source is injected as a fact.  This keeps the
    program — and hence its fingerprint, and hence every program-keyed
    cache — independent of the source constant.  Boolean [(x, y)]
    membership ({!holds}) runs the source-anchored program from [x]
    alone and stops as soon as [y] is derived.

    A translation is made once ({!translate}, {!of_nfa}) and evaluated
    through one trio, {!eval} / {!eval_from} / {!holds}: the service
    translates each [rpq-load] definition at load time, and
    {!Rpq_views} translates [R_max] and each view when it rewrites.
    Programs are immutable, so a translation may serve any domain, and
    the same program value keeps hitting the engine's compile caches
    physically.

    {2 The empty word}

    A translation carries its empty-word rule.  For an expression with
    [ε ∈ L(e)], {!eval} adds [(x, x)] for every node [x] of the
    sub-instance restricted to the expression's alphabet (its
    {!diagonal}), {!holds} answers [(x, x)] the same way, and
    {!eval_from} always includes the source.  An automaton translated
    by {!of_nfa} has no empty-word rule: [ε] adds nothing in any mode.

    All generated relation names start with [rpq_]; an alphabet that
    collides with the prefix is rejected. *)

type t

val translate : Rpq.t -> t
(** The expression's all-pairs and source-anchored programs, from one
    minimization, under the expression's empty-word rule.  An
    expression with an edge relation named with the reserved prefix
    translates to its error: every evaluation of the result raises
    [Invalid_argument], in every mode. *)

val of_nfa : Rpq_nfa.t -> t
(** The programs of an arbitrary ε-free NFA, with no empty-word rule:
    [ε ∈ L] contributes nothing.  {!Rpq_views.rewrite} translates
    [R_max] with it, since the rewriting's diagonal comes from the base
    graph rather than from the view image it evaluates over. *)

val eval :
  ?cancel:Dl_cancel.t -> t -> Instance.t -> (Const.t * Const.t) list
(** All pairs selected, sorted. *)

val eval_from :
  ?cancel:Dl_cancel.t -> t -> Instance.t -> Const.t -> Const.t list
(** The nodes reachable from the source along a path in the language,
    sorted by [Const.compare]; includes the source iff [ε ∈ L(e)]. *)

val holds :
  ?cancel:Dl_cancel.t -> t -> Instance.t -> Const.t -> Const.t -> bool
(** [(x, y)] membership in {!eval}'s answer: the anchored program seeded
    with [x], with goal [y] and the engine's early-stop goal check — one
    source's fixpoint, not all pairs.  A recursive state relation is
    demanded all-free as well as bound ([r(y) <- r(x), E(x,y)] binds [y]
    only), so the planner runs such programs on the plain VM rather
    than through magic sets. *)

val anchored : t -> Instance.t -> Const.t -> Datalog.query * Instance.t
(** The source-anchored program and the instance seeded with the source:
    the pair {!eval_from} evaluates and {!holds} queries. *)

val diagonal : Rpq.t -> Instance.t -> Const.Set.t
(** The expression's empty-word diagonal: the nodes of the sub-instance
    over its alphabet if [ε ∈ L(e)], and none otherwise. *)
