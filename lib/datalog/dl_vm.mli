(** Layer 2 of the rule-compilation pipeline: a flat register-bytecode VM
    for Datalog rule bodies.

    Static join plans ({!Dl_plan.plan}) are lowered to an [int array] of
    opcodes — [scan] / [index-probe] to open a step's cursor, [next] to
    advance it, [check-const] / [check-slot-eq] / [bind-slot] for the
    step's binding pattern, [emit-head] on a complete match, and
    [cancel-probe] on every advance path — executed by a tight dispatch
    loop over a preallocated [Const.t array] register file.  Because a
    static plan gives every slot exactly one binding site, the register
    file is untagged and backtracking needs no trail.

    Each rule is compiled once into a naive variant (all atoms read the
    full instance) and one semi-naive variant per body position (that
    atom reads the delta, atoms left of it the old facts, the rest the
    full instance).  The variants are the units of the {!Dl_semi} round
    loop, which {!fixpoint} shares with {!Dl_eval.fixpoint} — only the
    per-rule matcher differs.  The first round runs too on the
    delta-position variants, with the whole input as the delta.

    {2 Thread safety}

    {!compile}'s cache is keyed on {!Datalog.program_fingerprint} and
    mutex-guarded: any domain may compile concurrently (structurally
    equal programs share one compilation).  {!exec} is reentrant — all
    mutable state is per-call — provided no other domain builds the
    same instances' relation indexes meanwhile (see {!Instance.index}):
    the service's batch pool groups its tasks by instance for this.

    {2 Cancellation}

    Unlike the interpreted engines, which probe only at round
    boundaries, the VM executes a [cancel-probe] opcode on every cursor
    advance and every failed check (with a fuel counter so the actual
    clock read is periodic), so a deadline interrupts a long round
    mid-enumeration. *)

type program = private {
  code : int array;  (** flat bytecode *)
  pool : Const.t array;  (** constant pool *)
  rels : Symtab.sym array;  (** per step: interned relation id *)
  rel_names : string array;  (** per step: relation name *)
  srcs : int array;  (** per step: instance source (0 full, 1 old, 2 delta) *)
  nregs : int;
  nsteps : int;
  head_rid : Symtab.sym;
  head_rel : string;
  head_regs : int array;  (** per head position: source register *)
}

type rule_prog = private {
  source : Dl_plan.crule;
  naive : program;
  semi : program array;  (** one delta-position variant per body atom *)
}

val compile : Datalog.program -> rule_prog list
(** Lower every rule of the program to bytecode.  Cached by
    {!Datalog.program_fingerprint} under a mutex; safe from any
    domain. *)

val exec :
  program ->
  full:Instance.t ->
  ?old:Instance.t ->
  ?delta:Instance.t ->
  ?cancel:Dl_cancel.t ->
  (Fact.t -> bool) ->
  unit
(** [exec prog ~full emit] runs the bytecode, calling [emit] with the
    head fact of every match; [emit] returns [false] to stop the
    enumeration.  [old]/[delta] back the corresponding sources of
    semi-naive variants (default empty).  Raises {!Dl_cancel.Cancelled}
    if [cancel] fires, and [Invalid_argument] on an arity mismatch
    between a stored fact and its atom. *)

val fixpoint :
  ?cancel:Dl_cancel.t -> Datalog.program -> Instance.t -> Instance.t
(** Least fixpoint via bytecode execution; same contract as
    {!Dl_eval.fixpoint}. *)

val fixpoint_delta :
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  old:Instance.t ->
  delta:Instance.t ->
  Instance.t * Instance.t
(** Delta-start semi-naive rounds through the bytecode matcher; same
    contract as {!Dl_eval.fixpoint_delta}.  Being VM-backed, deadline
    tokens are additionally probed mid-round by the cancel-probe
    opcode. *)

val eval :
  ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array list

val holds :
  ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> Const.t array -> bool

val holds_boolean : ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool

val pp_program : program Fmt.t
(** Disassembly: header (head shape, step/register counts, constant
    pool) followed by one line per opcode with its pc.  Relation and
    constant names are printed, never raw intern ids, so the output is
    stable across processes. *)

val pp_rule_prog : rule_prog Fmt.t
(** The naive variant followed by every delta variant. *)
