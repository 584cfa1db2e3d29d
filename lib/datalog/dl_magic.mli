(** Magic-sets (demand) transformation for goal-directed bottom-up
    evaluation.

    [transform q pattern] specializes [q] for calls where the goal
    positions marked [true] in [pattern] are bound to known constants:
    every intensional predicate is split by adornment, rule firings are
    gated by magic predicates that propagate demand left-to-right through
    rule bodies (sideways information passing), and a {e copy rule} per
    adorned predicate keeps instance facts of intensional predicates
    visible.  Evaluating [t.query] on [inst] extended with the magic seed
    fact agrees with evaluating [q] on [inst], restricted to goal facts
    matching the seed — while the fixpoint derives only facts demanded by
    the goal. *)

type pattern = bool array
(** One flag per goal position: [true] = bound at call time. *)

val all_free : int -> pattern
val all_bound : int -> pattern

val pattern_string : pattern -> string
(** ["bf…"] rendering, e.g. [[|true; false|]] is ["bf"]. *)

val adorned_name : string -> pattern -> string
(** [adorned_name "P" [|true; false|]] is ["P#bf"]. *)

val magic_name : string -> pattern -> string
(** [magic_name "P" [|true; false|]] is ["m#P#bf"]. *)

type t = {
  query : Datalog.query;  (** transformed program; goal = adorned goal *)
  source_goal : string;  (** the original query's goal predicate *)
  pattern : pattern;
  magic_goal : string;  (** name of the goal's magic predicate *)
}

val transform : Datalog.query -> pattern -> t
(** Cached under physical equality of the source program; the cache is
    mutex-guarded, so any domain may call [transform].
    @raise Invalid_argument if the pattern length differs from the goal
    arity or the goal has no rules (see {!applicable}). *)

val applicable : Datalog.query -> bool
(** The goal is intensional — [transform] only specializes rule-defined
    goals; extensional goals answer directly from the instance. *)

val seed : t -> Const.t array -> Fact.t
(** [seed m tup] is the magic seed fact for the full goal tuple [tup]
    (only bound positions of [tup] are used). *)

val seed_free : t -> Fact.t
(** The (nullary) seed for a pattern with no bound position. *)

val adornments : t -> (string * string) list
(** The (relation, adornment) pairs reachable from the goal demand —
    one entry per adorned predicate of the transformed program. *)
