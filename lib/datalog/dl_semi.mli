(** The semi-naive round loop, written once for the {!Dl_eval} and
    {!Dl_vm} engines.

    A round fires {e units}.  A unit is a rule and a delta position: the
    body atom at the delta position reads the round's delta, atoms left
    of it read [old] (the facts before the round), atoms right of it
    read [full = old ∪ delta], so each derivation using a delta fact is
    found exactly once per round.  The facts absent from [full] are the
    next round's delta.  The loop probes cancellation at every round
    boundary, and stops on an empty delta or once a [stop] predicate
    accepts a derived fact.

    An engine is a {!matcher} over this loop, which runs one unit
    ({!Dl_eval.slots} or {!Dl_vm.exec}); the units of a round run in
    rule order on the calling thread. *)

type 'r matcher =
  'r ->
  int ->
  old:Instance.t ->
  delta:Instance.t ->
  full:Instance.t ->
  (Fact.t -> bool) ->
  unit
(** [m rule pos ~old ~delta ~full emit] runs one unit: [rule], in the
    engine's compiled form, with body atom [pos] reading [delta].  It
    calls [emit] with the head fact of every match; [emit] returns
    [false] to stop the enumeration. *)

val iter_units :
  ('r -> Dl_plan.crule) ->
  'r list ->
  old:Instance.t ->
  delta:Instance.t ->
  ('r -> int -> bool) ->
  unit
(** [iter_units shape rules ~old ~delta f] calls [f rule pos] on every
    unit of a round, in rule order, until [f] answers [false]; [shape]
    gives a rule's slot-compiled form.
    Units that cannot match are skipped: those whose position's relation
    has no fact in [delta], and those with an atom left of the position
    whose relation has no fact in [old]. *)

type 'r engine = {
  prepare : Dl_cancel.t -> Datalog.program -> 'r list * 'r matcher;
      (** compile the program; the matcher may probe the token *)
  shape : 'r -> Dl_plan.crule;
}

val fixpoint :
  'r engine ->
  ?stop:(Fact.t -> bool) ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  Instance.t ->
  Instance.t
(** Least fixpoint from scratch: the first round takes the input, plus
    the heads of bodiless rules, as the delta over an empty [old].
    Accepting a fact, [stop] ends the evaluation with the facts derived
    so far.  [cancel] is probed on entry and at every round boundary; a
    cancelled token raises {!Dl_cancel.Cancelled}. *)

val fixpoint_delta :
  'r engine ->
  ?cancel:Dl_cancel.t ->
  Datalog.program ->
  old:Instance.t ->
  delta:Instance.t ->
  Instance.t * Instance.t
(** Delta-start entry, with the contract of {!Dl_eval.fixpoint_delta}. *)

val eval :
  'r engine -> ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t ->
  Const.t array list

val holds :
  'r engine -> ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t ->
  Const.t array -> bool
(** Stops once the tuple is derived. *)

val holds_boolean :
  'r engine -> ?cancel:Dl_cancel.t -> Datalog.query -> Instance.t -> bool
(** Stops at the first goal fact. *)
