(** RPQ → linear Datalog, through the {!Dl_engine} facade.

    The translation is the product of the query's automaton with the
    edge relations: one binary IDB [PREFIXsK] per automaton state [K],
    holding the pairs [(x, y)] such that some path [x → y] spells a word
    taking the automaton from a start state to state [K].  The automaton
    is the {e minimal DFA} of the query's word NFA
    ({!Rpq_nfa.minimize}), so there is one IDB per minimal-DFA state:
    no dead states and no duplicated Thompson states feed the fixpoint.
    When the capped subset construction gives up, the trimmed NFA is
    translated instead, so the program never outgrows the NFA.  Seed
    rules read one edge from a start-state transition, closure rules
    extend a state relation by one edge, and the goal [PREFIXans]
    collects the final states — a {e linear} program (every rule body
    has at most one IDB), which every engine strategy evaluates
    round-per-path-length.

    Boolean [(x, y)] membership ({!holds}) runs the source-anchored
    program from [x] alone and stops as soon as [y] is derived.

    Source-anchored evaluation uses unary state relations seeded from
    the reserved EDB [PREFIXsrc]: rule heads cannot carry constants, so
    the source is injected as a fact.  This keeps the program — and
    hence its fingerprint, and hence every program-keyed cache —
    independent of the source constant.

    All generated relation names start with [prefix] (default [rpq_]);
    expressions whose alphabet collides with the prefix are rejected. *)

val ans_rel : ?prefix:string -> unit -> string
(** The goal relation, [PREFIXans]. *)

val src_rel : ?prefix:string -> unit -> string
(** The anchored seed relation, [PREFIXsrc]. *)

val pairs_of_nfa : ?prefix:string -> Rpq_nfa.t -> Datalog.query
(** The all-pairs program of an arbitrary ε-free NFA, one binary IDB per
    state of [Rpq_nfa.minimize a] (the trimmed NFA when the cap is hit).
    No empty-word handling: [ε ∈ L] contributes nothing — callers add
    their own diagonal, as {!eval} and {!Rpq_views.certain} do. *)

val anchored_of_nfa : ?prefix:string -> Rpq_nfa.t -> Datalog.query
(** The source-anchored program of an NFA: one unary IDB per state of
    [Rpq_nfa.minimize a] (again the trimmed NFA when the cap is hit),
    seeded by [PREFIXsrc] facts.  Again no empty-word handling. *)

val pairs : ?prefix:string -> Rpq.t -> Datalog.query
(** [pairs_of_nfa] of the expression's NFA, plus the diagonal rules for
    the empty word: if [ε ∈ L(e)], [(x, x)] is derived for every node
    [x] of the sub-instance restricted to the expression's alphabet. *)

val anchored : ?prefix:string -> Rpq.t -> Datalog.query
(** [anchored_of_nfa] of the expression's NFA, plus — if [ε ∈ L(e)] —
    the rule deriving the source itself. *)

val eval :
  ?strategy:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Rpq.t ->
  Instance.t ->
  (Const.t * Const.t) list
(** All pairs selected by the expression, sorted. *)

val eval_from :
  ?strategy:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Rpq.t ->
  Instance.t ->
  Const.t ->
  Const.t list
(** The nodes reachable from the source along a path in the language,
    sorted; includes the source iff [ε ∈ L(e)]. *)

val holds :
  ?strategy:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Rpq.t ->
  Instance.t ->
  Const.t ->
  Const.t ->
  bool
(** [(x, y)] membership: [x = y] on the empty word's {!diagonal}, or
    {!holds_nfa} on the expression's NFA. *)

val diagonal : Rpq.t -> Instance.t -> Const.Set.t
(** The empty word's diagonal: the nodes of the sub-instance over the
    expression's alphabet if [ε ∈ L(e)], and none otherwise. *)

val holds_nfa :
  ?strategy:Dl_engine.strategy ->
  ?cancel:Dl_cancel.t ->
  Rpq_nfa.t ->
  Instance.t ->
  Const.t ->
  Const.t ->
  bool
(** Whether a nonempty path [x → y] spells a word of the NFA: the
    anchored program seeded with [x], with goal [y] and the engine's
    early-stop goal check — one source's fixpoint, not all pairs. *)
