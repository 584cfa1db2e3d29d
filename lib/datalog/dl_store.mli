(** The derived-fact store of one semi-naive evaluation: the state that
    {!Dl_semi}'s round loop reads and grows, private to one call.

    The {e base} is a frozen {!Instance}: the facts the evaluation
    starts from (the first round's [old ∪ delta]).  Its cached indexes
    are read as they are and nothing is ever added to it.  Each
    relation a rule derives ({e head}) has an append-only {e tail} of
    the tuples derived beyond the base:
    - a tuple hash set, for deduplication;
    - its rows, newest first, the current batch (the round's delta) in
      front;
    - per-position buckets, built the first time a unit probes the
      relation and then appended in place at every round boundary; each
      bucket's count of current-batch tuples lets an [old] probe skip
      them.

    Tuples derived in a round are kept apart until the round ends
    ({!commit}), so every unit of a round reads the same [old], [delta]
    and [full].  From the second round on a relation's parts are
    [delta] = its current batch, [old] = base ∪ earlier batches and
    [full] = base ∪ tail.  The first round reads instances instead
    ({!first}).

    Relations are numbered densely by the compiled program
    ({!Dl_vm.compiled}); every lookup here is an array access. *)

type t

type part = Full | Old | Delta
(** The three views of a relation in a round. *)

val create :
  rids:Symtab.sym array ->
  base:Instance.t ->
  old:Instance.t ->
  delta:Instance.t ->
  t
(** [create ~rids ~base ~old ~delta]: relation [k] is [rids.(k)].  The
    first round reads [old], [delta] and, as [full], [base], which must
    be [old ∪ delta]. *)

val first : t -> (Instance.t * Instance.t) option
(** [Some (old, delta)] during the first round, [None] after. *)

val base : t -> Instance.t

val has : t -> part -> int -> bool
(** Whether relation [k]'s part has a tuple in the current round. *)

(** {2 Tails} *)

type rel
(** A head relation's tail. *)

val tail : t -> int -> rel option
(** Relation [k]'s tail, when it is a head with at least one derived
    tuple: a relation without one reads the base alone.  [None] during
    the first round. *)

val rows : rel -> part -> Const.t array list
(** The tail's tuples in a part (newest first); [Old] and [Full] leave
    the base's out. *)

val count : rel -> part -> int -> Const.t -> int
(** [count tl part p c]: the tail tuples of the part with [c] at
    position [p].  Builds the buckets on first use. *)

val lookup : rel -> part -> int -> Const.t -> Const.t array list
(** The tuples {!count} counts.  Only a [Delta] lookup copies (the
    batch's part of the bucket). *)

(** {2 Growing} *)

val add : t -> int -> Const.t array -> bool
(** [add st k tup] keeps [tup] in relation [k] for the next round unless
    the base or the tail already holds it; [true] iff it was kept.  The
    relation's tail is made on its first tuple.  The store takes
    ownership of [tup]. *)

val commit : t -> bool
(** The round boundary: the kept tuples become every tail's current
    batch, and the first round ends.  [true] iff some batch is
    non-empty, i.e. there is a next round. *)

(** {2 Results} *)

val tuples : t -> Symtab.sym -> Const.t array list
(** A relation's base and tail tuples, sorted by {!Fact.compare_args}
    (the order of {!Instance.tuples}). *)

val derived : t -> Instance.t
(** The committed tail tuples of every head, as an instance. *)
