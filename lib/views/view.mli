(** Views and view images (paper §2).

    A view is a pair [(V, Q_V)] of a view relation name and a defining
    query over the base schema, possibly recursive Datalog.  Here a view
    {e is} its Datalog program: every constructor builds the query whose
    goal is the view name, and every reading of a collection — its image,
    the CQ approximations the canonical tests chase, the composition
    [Q∘V] — goes through the collection's combined program, the
    concatenation of its views' programs.  A view image is one fixpoint
    of that program, restricted to the view schema.  A body atom that
    names a view head, the view's own or another view's, is read as that
    view everywhere. *)

type t = { name : string; program : Datalog.query }
(** [program]'s goal is [name]; the IDBs of a {!datalog} view are
    renamed apart as [name$P]. *)

type collection = t list

val cq : string -> Cq.t -> t
val ucq : string -> Ucq.t -> t
val datalog : string -> Datalog.query -> t

val atomic : string -> string -> int -> t
(** [atomic v r n]: the view [V(x̄) ← R(x̄)] copying the arity-[n] base
    relation [r]. *)

val arity : t -> int

val as_cq : t -> Cq.t option
(** The view's definition as a CQ, if its program is one rule whose head
    is the goal and whose body names no IDB: the form the CQ-only paths
    (inverse rules, Lemma 3's radius, Theorem 2's split) read. *)

val combined_program : collection -> Datalog.program
(** The concatenation of the views' programs, in collection order. *)

val fingerprint_hex : collection -> string
(** 32-hex-digit structural fingerprint of the collection (names and
    programs, order-sensitive), with the same contract as
    {!Datalog.fingerprint}: equal collections fingerprint equal,
    process-local values, memoized under physical equality of the
    list. *)

val approximations :
  ?max_depth:int -> ?max_count:int -> collection -> (string * Cq.t list) list
(** Per view, in collection order, the CQ approximations of its goal
    inside {!combined_program} ({!Dl_approx.approximations_of_pred}):
    for a view whose body names no view head, its rules' bodies. *)

val view_schema : collection -> Schema.t

val base_schema : collection -> Schema.t
(** The extensional relations of {!combined_program}. *)

val image : collection -> Instance.t -> Instance.t
(** The view image [V(I)]: one {!Dl_engine.fixpoint} of
    {!combined_program}, restricted to the view schema.  Staged:
    [image vs] builds the program and the schema once, so a caller
    imaging many instances binds [let image = View.image vs in]. *)

val is_cq_collection : collection -> bool
(** Every view has a CQ form ({!as_cq}). *)

val max_radius : collection -> int option
(** Greatest radius of a CQ definition (Lemma 3's [r]); [None] if some CQ
    definition is disconnected or some definition is not a CQ. *)

val all_connected_cqs : collection -> bool

val split_disconnected : t -> collection
(** Replace a disconnected CQ view by connected views in the sense of the
    proof of Theorem 2: each output component keeps its own variables and
    existentially guards the other components.  Views whose definition is
    already connected (or not a CQ) are returned unchanged.  Note the
    resulting collection carries the same information as the original
    view: the original can be reconstructed as the product of the parts. *)

val pp : t Fmt.t
val pp_collection : collection Fmt.t
