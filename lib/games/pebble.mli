(** Existential pebble games (paper §7).

    The Duplicator wins the existential k-pebble game on [(I, I')] iff
    there is a non-empty family of partial homomorphisms of domain size
    ≤ k that is closed under restrictions and has the forth (extension)
    property (Fact 5).  We compute the greatest such family by
    k-consistency with support counts, in the style of arc-consistency
    algorithm AC-4.  Both active domains are interned as integers and
    every candidate map gets a dense id, so the family is a bitmap seeded
    with all partial homomorphisms.  Each map below size k keeps, per
    element outside its domain, a count of its live one-point extensions.
    A worklist of dying maps kills their extensions and decrements their
    restrictions' counts; a restriction whose count reaches 0 dies too.

    [I →k I'] (Duplicator wins) is implied by [I → I'] and, by Fact 1,
    coincides with "every instance of treewidth < k mapping into [I] also
    maps into [I']". *)

type family
(** A winning family of partial homomorphisms. *)

val kconsistent : k:int -> Instance.t -> Instance.t -> family option
(** The greatest winning family for the existential k-pebble game, or
    [None] when the Spoiler wins.  A [k] above the source's element count
    plays as that count.

    @raise Invalid_argument when [k < 0], or when the dense family — the
    Σ_{s ≤ k} C(n,s)·m^s maps over n source and m target elements — and
    its tables would take more than 256 MiB. *)

val duplicator_wins : k:int -> Instance.t -> Instance.t -> bool
(** [Option.is_some (kconsistent ~k i i')]; raises as {!kconsistent}. *)

val one_k_consistent : k:int -> Instance.t -> Instance.t -> bool
(** The (1,k) variant used against Monadic Datalog (Fact 3): between
    moves at most one pebble keeps its position, so the family must allow
    jumping from any placement to any other domain set while preserving a
    single chosen pebble. *)

val family_size : family -> int
val family_mem : family -> (Const.t * Const.t) list -> bool
(** Is the given partial map (sorted or not) in the family?  [false] for
    a pair outside either active domain and for a list naming a source
    element twice. *)
