(** The CQ-satisfaction automaton: a deterministic (symbolic) bottom-up
    tree automaton deciding, for a fixed Boolean CQ [Q], whether the
    decoding of a code satisfies [Q].

    A state is a set of pairs [(S, f)]: [S] a set of atoms of [Q] matched
    somewhere in the processed subtree, and [f] the positions (in the
    current bag) of the matched variables that are still visible.  A pair
    is discarded when a variable that still occurs in an unmatched atom
    disappears from the bag.  This is the standard technique for running
    MSO-ish properties over tree decompositions, and is the engine behind
    our Datalog ⊆ CQ containment test (Theorem 5). *)

val make : ?negate:bool -> ?prune:bool -> Cq.t -> Dta.t
(** Satisfaction of the CQ taken as a Boolean query (head ignored).
    [negate] complements acceptance (the set of codes whose decoding does
    {e not} satisfy the CQ — Proposition 6 for nonrecursive queries).
    [prune] (default true) drops state pairs dominated by a pair with more
    atoms matched under fewer constraints; disable only for ablation.
    @raise Unsupported.Error if the CQ has constants. *)

val holds_on_code : ?prune:bool -> Cq.t -> Code.t -> bool
(** Run the automaton on a concrete code (equivalent to decoding and
    evaluating; used for differential testing). *)
