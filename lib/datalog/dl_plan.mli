(** Layer 1 of the rule-compilation pipeline: slot compilation and join
    planning.

    Rules are {e slot-compiled} — variables numbered into slots of a flat
    binding array — and then {e planned}: an explicit per-rule join order
    with a binding pattern for every argument position and the lifetime
    of every slot.  {!Dl_eval.run_compiled} interprets slot-compiled
    rules with {e dynamic} atom ordering (re-chosen per firing from index
    statistics, via {!estimate_atom} / {!select_candidates});
    {!Dl_vm} lowers {e static} plans to flat register bytecode.

    {2 Thread safety}

    {!compile}'s per-program cache is mutex-guarded: any domain may call
    it concurrently (the service's worker domains do).  Everything else
    here is pure. *)

type cterm = Cslot of int | Cconst of Const.t

type catom = {
  crel : string;
  crid : Symtab.sym;  (** interned [crel], cached at compile time *)
  cterms : cterm array;
}

type crule = {
  nvars : int;
  cbody : catom array;
  chead : catom;
  crels : Symtab.sym list;  (** distinct body relation ids, sorted *)
}

val compile_rule : Datalog.rule -> crule

val compile : Datalog.program -> crule list
(** Slot-compile a program.  Results are cached under physical equality
    of the program; the cache is mutex-guarded, so concurrent calls from
    worker domains are safe (they serialize on the cache). *)

(** {2 Dynamic planning primitives}

    Per-firing selectivity estimates over a partial binding [env]
    (a [Const.t option array] indexed by slot), used by the interpreted
    matcher to order atoms most-constrained-first at every depth. *)

val estimate_atom : catom -> Const.t option array -> Instance.t -> int
(** Upper bound on the number of candidate tuples for the atom under the
    bindings accumulated so far: the smallest index bucket among its
    bound positions, or the relation's cardinality if none is bound.  A
    ground atom (every position fixed) estimates at most 1. *)

val select_candidates :
  catom -> Const.t option array -> Instance.t -> Const.t array list
(** The candidate tuples behind {!estimate_atom}'s bound: the most
    selective bound position's bucket (the whole relation if no position
    is bound).  A ground atom whose best bucket holds more than a few
    tuples is a membership test instead: its tuple if present, else
    nothing. *)

(** {2 Static plans}

    A plan fixes the complete control shape of one rule body: the order
    atoms are matched in, and for every argument position whether it
    checks a constant, checks an already-bound slot, or binds a fresh
    slot.  Under a fixed plan each slot has exactly one binding site, so
    an executor needs neither option tags nor an undo trail — the basis
    of {!Dl_vm}'s register bytecode. *)

type binding =
  | Bconst of Const.t  (** position must equal the constant *)
  | Bbind of int  (** position binds this slot (first occurrence) *)
  | Bcheck of int  (** position must equal the already-bound slot *)

type step = {
  satom : int;  (** index of the matched atom in [prule.cbody] *)
  spat : binding array;  (** binding pattern, one entry per position *)
}

type t = {
  prule : crule;
  pdelta : int option;
      (** the semi-naive delta position this plan serves, if any: that
          atom is matched first against the delta, atoms left of it (in
          the original body) against the old facts, the rest against the
          full instance *)
  steps : step array;  (** join order: one step per body atom *)
  first_def : int array;  (** per slot: the step that binds it *)
  last_use : int array;
      (** per slot: the last step reading it ([Array.length steps] when
          the head reads it at emit time) *)
}

val plan : crule -> delta:int option -> t
(** Plan one rule.  [delta = Some j] forces body atom [j] first (it
    matches the small delta); the remaining atoms are ordered greedily
    most-bound-first (constants and already-bound slots count as bound,
    constants break ties), lowest body index on full ties — so plans are
    deterministic functions of the rule. *)

val pp : t Fmt.t
