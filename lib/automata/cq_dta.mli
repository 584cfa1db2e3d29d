(** The CQ-satisfaction automaton: a deterministic (symbolic) bottom-up
    tree automaton deciding, for a fixed Boolean CQ [Q], whether the
    decoding of a code satisfies [Q].  It is the engine behind our
    Datalog ⊆ CQ containment test (Theorem 5).

    A state is a set of pairs [(S, f)]: [S] the atoms of [Q] matched
    somewhere in the processed subtree, and [f] the positions (in the
    current bag) of the matched variables that are still needed.  A pair
    is discarded when a variable that still occurs in an unmatched atom
    disappears from the bag.  This is the standard technique for running
    MSO-ish properties over tree decompositions.

    {b Representation.}  [S] is an [int] mask over the atoms; [f] is an
    [int] mask of the visible variables plus an [int array] giving each
    variable's bag position ([-1] when not visible).  Being needed,
    domination, combining two pairs, translating a pair through an edge
    and dropping unneeded variables are mask tests plus one loop over the
    variables.  A CQ with more than 62 atoms or more than 62 variables
    does not fit the masks.

    {b Antichains.}  With pruning, [(S, f)] dominates [(S', f')] when
    [S' ⊆ S] and [f ⊆ f']: every completion of the second pair completes
    the first.  Translation, combination and matching keep domination, so
    every intermediate set is kept an antichain: translating a child's
    antichain through an edge (a partial injection) gives an antichain,
    the set is pruned after each pairwise combination of children, and
    again while closing under the node label.  The maximal pairs are the
    same as when pruning only the finished set.

    {b Interning.}  A finished state is interned to an [int] ([dstate]),
    so comparison is [Int.compare] and acceptance a table lookup, and
    [step] is memoised on the symbol and the children's ids.  These
    tables belong to one automaton (one call of {!make}) and are freed
    with it. *)

val make : ?negate:bool -> ?prune:bool -> Cq.t -> Dta.t
(** Satisfaction of the CQ taken as a Boolean query (head ignored).
    [negate] complements acceptance (the set of codes whose decoding does
    {e not} satisfy the CQ — Proposition 6 for nonrecursive queries).
    [prune] (default true) keeps states antichains under domination;
    without it, sets are only deduplicated (for ablation).
    @raise Unsupported.Error if the CQ has constants, or more than 62
    atoms or 62 variables. *)

val holds_on_code : ?prune:bool -> Cq.t -> Code.t -> bool
(** Run the automaton on a concrete code (equivalent to decoding and
    evaluating; used for differential testing). *)

val pairs_on_code :
  ?prune:bool -> Cq.t -> Code.t -> (int list * (int * int) list) list
(** The pairs of the state reached at the root of a code, for tests:
    each is the sorted atom indices (in body order) and the sorted
    [(variable, position)] list, variables indexed in sorted name order. *)
