(** Datalog programs and queries (paper §2).

    A rule is [P(x̄) ← φ(x̄,ȳ)] with [φ] a conjunction of atoms and every
    head variable occurring in the body.  Relation symbols occurring in
    rule heads are the intensional predicates (IDBs); all others are
    extensional (EDBs).  A query is a program with a distinguished goal
    IDB. *)

type rule = { head : Cq.atom; body : Cq.atom list }

type program = rule list

type query = { program : program; goal : string }

val rule : Cq.atom -> Cq.atom list -> rule
(** @raise Invalid_argument if a head variable is absent from the body,
    the head contains a constant, or a relation occurs in the rule with
    two different arities. *)

val validate : program -> unit
(** @raise Invalid_argument if a relation is used with two different
    arities anywhere in the program.  Catching this at rule-load time is
    what lets the evaluator treat an arity mismatch against an instance as
    a hard error instead of silently skipping the fact. *)

val make : program -> string -> query
(** Validating constructor: runs {!validate} on the program. *)

val query : program -> string -> query
(** Alias of {!make}. *)

val idbs : program -> string list
(** Head predicates, sorted. *)

val edbs : program -> string list
(** Body predicates that are not IDBs, sorted. *)

val is_idb : program -> string -> bool

val edb_schema : program -> Schema.t
val idb_schema : program -> Schema.t
val schema : program -> Schema.t

val goal_arity : query -> int

val rules_for : program -> string -> rule list
(** Rules whose head predicate is the given name. *)

val head_vars : rule -> string list
val body_vars : rule -> string list

val rename_rule_apart : rule -> rule
(** Rename all variables of the rule to globally fresh ones. *)

val depends_on : program -> string -> string -> bool
(** [depends_on p a b]: predicate [a] (transitively) uses predicate [b]. *)

val is_recursive_rule : program -> rule -> bool
(** The body mentions an IDB that transitively depends on the head. *)

val rename_idbs : (string -> string) -> query -> query
(** Rename intensional predicates (including the goal). *)

val max_body_vars : program -> int
(** Maximum number of distinct variables in a rule body — the paper's bound
    [k = O(|Q|)] on decomposition width. *)

val of_cq : goal:string -> Cq.t -> query
(** The single-rule nonrecursive query [goal(x̄) ← body]. *)

val of_ucq : goal:string -> Ucq.t -> query

val union : query -> query -> string -> query
(** [union q1 q2 g]: a query with goal [g] holding iff either goal holds.
    IDB name clashes are the caller's responsibility (use
    {!rename_idbs}). *)

val fingerprint : query -> int * int
(** 126-bit structural fingerprint: structurally equal queries always
    fingerprint equal, unequal fingerprints prove inequality.  Named
    constants contribute their interned id, so values are process-local.
    Memoized under physical equality of the query, so repeated calls on
    a session-held query are O(1). *)

val fingerprint_hex : query -> string
(** 32-hex-digit rendering of {!fingerprint}. *)

val program_fingerprint : program -> int * int
(** Fingerprint of a bare program (no goal mixed in), for caches keyed on
    the rule set alone.  Unmemoized — the fold is O(|p|) and pure, so it
    is safe from any domain; {!Dl_vm.compile} calls it only when a
    physical-equality lookup misses. *)

val pp_rule : rule Fmt.t
val pp_program : program Fmt.t
val pp_query : query Fmt.t
