(** Database instances: finite sets of facts, indexed by relation name.

    Instances follow the paper's conventions: an instance is just a set of
    facts; its active domain is the set of elements occurring in them.

    Internally relations are keyed by interned {!Symtab} ids and every
    instance carries an order-independent 126-bit structural fingerprint,
    maintained incrementally by {!add}, {!remove}, {!union},
    {!union_disjoint} and {!diff}
    (including their warm index-extending and index-shrinking paths) and
    recomputed per affected relation by the other set operations.
    Structurally equal instances always have equal fingerprints, however
    they were built; unequal fingerprints prove inequality.  Fingerprints
    depend on intern order and fresh-null identity, so they are only
    meaningful within one process. *)

type t

val empty : t
val add : Fact.t -> t -> t
val remove : Fact.t -> t -> t
val of_list : Fact.t list -> t
(** The instance of a fact list, duplicates allowed.  Built in bulk:
    the facts are grouped by relation and each relation's tuple set is
    made at once, its fingerprint summed from the facts' cached hashes —
    the way to build an instance from many facts, where folding {!add}
    would rebuild a set path and re-sum per fact. *)

val of_tuples : (Symtab.sym * Const.t array list) list -> t
(** [of_tuples [(rid, tups); ...]] holds the tuples [tups] in the
    relation with interned id [rid], for each pair, in bulk as
    {!of_list} does.  Each relation id appears at most once. *)

val of_facts : Fact.Set.t -> t
val singleton : Fact.t -> t
val facts : t -> Fact.t list
val fact_set : t -> Fact.Set.t
val mem : Fact.t -> t -> bool
val size : t -> int
(** Number of facts. *)

val is_empty : t -> bool

val union : t -> t -> t
(** Set union.  Index caches stay warm: a relation unchanged by the union
    shares its [rel] record (index included) with the operand it came
    from, and a relation that grows reuses the larger operand's cached
    index extended with the smaller side's novel tuples
    (see {!Index.extend}) instead of rebuilding it on next use. *)

val union_disjoint : t -> t -> t
(** [union_disjoint a b] is [union a b] provided no fact is in both [a]
    and [b]; the result is unspecified otherwise (its {!size},
    {!cardinal} and {!fingerprint} would count the shared facts twice).
    Skips {!union}'s subset and difference work: sizes and fingerprint
    sums add up.  A relation in both operands extends the larger side's
    index (see {!Index.extend}) by the smaller side's tuples if that
    index exists, and is left unindexed otherwise. *)

val diff : t -> t -> t
(** Set difference.  The decremental dual of {!union}: a relation losing
    tuples subtracts their hashes from its fingerprint sums, and a cached
    index shrinks by the removed tuples (see {!Index.shrink}) instead of
    being rebuilt on next use — unless over a quarter of the relation
    goes, where the index is left to a lazy rebuild of the survivors. *)

val inter : t -> t -> t
val subset : t -> t -> bool

val equal : t -> t -> bool
(** Structural equality.  Unequal fingerprints reject in O(1); equal
    fingerprints are confirmed structurally. *)

val compare : t -> t -> int

val fingerprint : t -> int * int
(** The instance's structural fingerprint pair, in O(1). *)

val fingerprint_hex : t -> string
(** 32-hex-digit rendering of {!fingerprint}, in O(1) — cache keys over
    instances cost the same whatever the instance size. *)

val relations : t -> string list
(** Relation names with at least one fact, sorted. *)

val tuples : t -> string -> Const.t array list
(** All tuples of the given relation (empty list if none). *)

val tuples_with : t -> string -> (int * Const.t) list -> Const.t array list
(** [tuples_with i r cs] returns the tuples of [r] whose position [p] holds
    constant [c] for every [(p, c)] in [cs].  Backed by a per-relation
    secondary index (see {!Index}): the bucket of the most selective bound
    position is scanned and the remaining constraints filter it. *)

val cardinal : t -> string -> int
(** Number of tuples of the given relation. *)

val index : t -> string -> Index.t option
(** The relation's secondary index (built on first request, then cached),
    or [None] if the relation has no facts.  This is the raw handle behind
    {!tuples_with} / {!estimate_with}, for callers that drive their own
    join loop. *)

val estimate_with : t -> string -> (int * Const.t) list -> int
(** Upper bound on [List.length (tuples_with i r cs)], in O(|cs|) index
    lookups: the smallest bucket count among the bound positions, or the
    relation's cardinality when [cs] is empty.  Join planners use this to
    order atoms most-constrained-first. *)

(** {2 Id-keyed access paths}

    Variants of the relation-name accessors taking an interned {!Symtab}
    id (e.g. {!Fact.rid} or a compiled rule's cached id) — the evaluator's
    inner loops use these so no string is hashed or compared per lookup.
    The string versions cost one symbol-table probe ({!Symtab.find_opt});
    names never interned resolve to the empty relation without growing
    the table. *)

val cardinal_id : t -> Symtab.sym -> int
val mem_tuple_id : t -> Symtab.sym -> Const.t array -> bool
val index_id : t -> Symtab.sym -> Index.t option

val scan_id : t -> Symtab.sym -> Const.t array list
(** All tuples of the relation, in no particular order, without
    building an index: the cached index's {!Index.all} when one exists,
    else the tuple set's elements, cached for the next scan. *)

val tuples_with_id : t -> Symtab.sym -> (int * Const.t) list -> Const.t array list
val estimate_with_id : t -> Symtab.sym -> (int * Const.t) list -> int

val adom : t -> Const.Set.t
(** Active domain. *)

val map : (Const.t -> Const.t) -> t -> t
(** Apply a renaming to every fact. *)

val restrict : (string -> bool) -> t -> t
(** Keep only facts whose relation satisfies the predicate (the paper's
    [F ↾ Σ']). *)

val restrict_schema : Schema.t -> t -> t
val filter : (Fact.t -> bool) -> t -> t
val fold : (Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Fact.t -> unit) -> t -> unit
val schema : t -> Schema.t
(** The schema inferred from the facts present. *)

val rename_apart : t -> t
(** A copy of the instance with every element replaced by a fresh null
    (used to take disjoint copies). *)

val pp : t Fmt.t
