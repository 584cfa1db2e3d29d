(** The forward mapping of Proposition 3: an NTA capturing the codes of
    canonical databases of the CQ approximations of a Datalog query.

    States are the intensional predicates; the transition for a rule reads
    one child per intensional body atom.  Codes are "canonical": a node's
    bag lists the rule's head variables first (head variable [i] at
    position [i]) followed by the remaining body variables, so the
    automaton has exactly one transition per rule and the accepted codes
    decode precisely to the approximations (capture in the paper's
    sense). *)

val approximations_nta : ?binarize:bool -> Datalog.query -> Nta.t * int
(** The capturing automaton and the code width [k] (the paper's
    [k = O(|Q|)], here the maximum number of body variables).  [binarize]
    (default true) chains wide rules through auxiliary predicates so that
    transitions have ≤ 2 children; disable only for ablation.
    @raise Unsupported.Error on constants in rules or repeated variables
    in rule heads; repeated variables in intensional body atoms are
    handled by the {!Dl_specialize} preprocessing. *)

val state_of_pred : Datalog.query -> string -> Nta.state option
(** The automaton state of an intensional predicate. *)
