(** Layer 2 of the rule-compilation pipeline: a flat register-bytecode VM
    for Datalog rule bodies, and the only semi-naive matcher.

    Static join plans ({!Dl_plan.plan}) are lowered to an [int array] of
    opcodes — [scan] / [index-probe] to open a step's cursor, [next] to
    advance it, [check-const] / [check-slot-eq] / [bind-slot] for the
    step's binding pattern, [emit-head] on a complete match, and
    [cancel-probe] on every advance path — executed by a tight dispatch
    loop over a preallocated [Const.t array] register file.  Because a
    static plan gives every slot exactly one binding site, the register
    file is untagged and backtracking needs no trail.  A step with no
    bound position opens with [scan] and reads its relation's tuple list
    ({!Instance.scan_id}), fetched once per run, so it opens no index;
    only [index-probe] steps resolve their relation's index, building it
    on first use.  What a step reads is resolved once per run into a
    plain value (an index, a tuple list, or a store tail with the base
    index behind it), so the dispatch loop calls no closure to find
    candidates.

    Each rule is compiled once into one semi-naive variant per body
    position (that atom reads the delta, atoms left of it the old facts,
    the rest the full instance).  The variants are the units of the
    {!Dl_semi} round loop, which runs them over its store of derived
    tuples ({!exec_store}).  The first round runs too on the
    delta-position variants, with the whole input as the delta.  A naive
    variant (all atoms read the full instance) is lowered on request
    ({!naive_program}).  Two seeded entries serve
    {!Dl_incr}'s Backward/Forward search: {!run_head} enumerates the
    derivations of one fact, {!run_body} the derivations one fact takes
    part in.

    {2 Thread safety}

    {!compiled}'s cache is mutex-guarded: any domain may compile
    concurrently (structurally equal programs share one compilation).
    {!exec}, {!exec_store} and the seeded entries are reentrant — all mutable state is
    per-call — provided no other domain builds the same instances'
    relation indexes meanwhile (see {!Instance.index}; only probed
    relations are indexed): the service serializes the requests on a
    session for this.

    {2 Cancellation}

    The VM executes a [cancel-probe] opcode on every cursor advance and
    every failed check (with a fuel counter so the actual clock read is
    periodic), so a deadline interrupts a long round mid-enumeration. *)

type program = private {
  code : int array;  (** flat bytecode *)
  pool : Const.t array;  (** constant pool *)
  rels : Symtab.sym array;  (** per step: interned relation id *)
  rel_names : string array;  (** per step: relation name *)
  srcs : int array;  (** per step: instance source (0 full, 1 old, 2 delta) *)
  nums : int array;  (** per step: the relation's number ({!compiled}) *)
  scans : bool array;  (** per step: opens with [scan], not [index-probe] *)
  nregs : int;
  nsteps : int;
  head_rid : Symtab.sym;
  head_rel : string;
  head_regs : int array;  (** per head position: source register *)
}

type rule_prog = private {
  source : Dl_plan.crule;
  semi : program array;  (** one delta-position variant per body atom *)
  body_nums : int array;  (** per body atom: its relation's number *)
  head_num : int;  (** the head relation's number *)
}

type compiled = private {
  rules : rule_prog list;
  rids : Symtab.sym array;
      (** relation number to interned id: the program's relations are
          numbered densely, in order of first occurrence *)
}

val compiled : Datalog.program -> compiled
(** Lower every rule of the program to its delta-position variants and
    number its relations.  Cached: a program is looked up by physical
    equality first and fingerprinted ({!Datalog.program_fingerprint})
    only on a miss, so a fresh program structurally equal to a cached
    one shares its compilation.  The cache keeps the 16 most recently
    used programs and is mutex-guarded; safe from any domain. *)

val compile : Datalog.program -> rule_prog list
(** [(compiled p).rules]. *)

val naive_program : Dl_plan.crule -> program
(** The rule's naive variant: every body atom reads [full].  Uncached. *)

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

val exec_store :
  program -> Dl_store.t -> ?cancel:Dl_cancel.t -> (Const.t array -> bool) -> unit
(** [exec_store prog st emit] runs a delta-position variant of a
    {!compiled} program over the store of a {!Dl_semi} evaluation,
    calling [emit] with the head tuple of every match (a fresh array).
    The store's first round reads its instances, as {!exec} does; later
    rounds read each head relation's tail ({!Dl_store.tail}) and then
    its base facts, and every other relation from the base. *)

(** {2 Seeded runs}

    Both entries read every body atom from one instance [src] and call
    [on_match] with the register file of every match (slot [s] of the
    rule's {!Dl_plan.crule} is register [s]; see {!atom_fact}).  The
    array is reused across matches, so copy what must outlive the call;
    [on_match] returns [false] to stop. *)

val head_program : Dl_plan.crule -> program
(** The rule planned with its head slots bound before the first step
    (every position they occupy is checked, never bound).  Uncached. *)

val run_head :
  ?cancel:Dl_cancel.t ->
  program ->
  Const.t array ->
  Instance.t ->
  (Const.t array -> bool) ->
  unit
(** [run_head prog tup src on_match], [prog] from {!head_program}:
    the matches whose head fact has arguments [tup].  The head registers
    are preloaded from [tup]; a repeated head variable that [tup] gives
    two values means no match.  [Invalid_argument] if [tup]'s arity is
    not the head's. *)

val run_body :
  ?cancel:Dl_cancel.t ->
  rule_prog ->
  int ->
  Const.t array ->
  Instance.t ->
  (Const.t array -> bool) ->
  unit
(** [run_body rp j tup src on_match]: the matches whose body atom [j]
    is matched to [tup].  Runs [rp.semi.(j)] with step 0's cursor being
    [tup] alone, which is not looked up in [src]; a constant or a
    repeated variable of atom [j] that [tup] contradicts means no
    match. *)

val atom_fact : Dl_plan.catom -> Const.t array -> Fact.t
(** Any atom of the rule (the head included) under a register file in
    which all its slots are bound. *)

val pp_program : program Fmt.t
(** Disassembly: header (head shape, step/register counts, constant
    pool) followed by one line per opcode with its pc.  Relation and
    constant names are printed, never raw intern ids, so the output is
    stable across processes. *)

val pp_rule_prog : rule_prog Fmt.t
(** The naive variant (lowered for the occasion) followed by every
    delta variant. *)
