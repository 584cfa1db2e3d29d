(** Layer 1 of the rule-compilation pipeline: slot compilation and join
    planning.

    Rules are {e slot-compiled} — variables numbered into slots of a flat
    register file — and then {e planned}: an explicit per-rule join order
    with a binding pattern for every argument position and the lifetime
    of every slot.  {!Dl_vm} lowers the plans to flat register bytecode
    and caches the result per program.  Everything here is pure. *)

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

val plan : ?seeded:int list -> crule -> delta:int option -> t
(** Plan one rule.  [delta = Some j] forces body atom [j] first (it
    matches the small delta); the remaining atoms are ordered greedily
    most-bound-first (constants and already-bound slots count as bound,
    constants break ties), lowest body index on full ties — so plans are
    deterministic functions of the rule.  The [seeded] slots (default
    none) count as bound before the first step: every position they
    occupy is a check, never a binder, and their [first_def] is [-1].
    This is the plan of a run whose registers a caller preloads, such as
    {!Dl_vm}'s head-seeded entry. *)

val pp : t Fmt.t
