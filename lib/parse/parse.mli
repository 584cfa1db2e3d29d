(** A small surface syntax for rules, queries and instances.

    Rules are written
    {v  W1(x) <- T(x,y,z), B(z,w), B(y,w), W1(w). v}
    ([":-"] is accepted for ["<-"]).  In rules, plain identifiers are
    variables and quoted identifiers (['a]) are constants.  In instances,
    plain identifiers are constants:
    {v  R(a,b). U(a). v}
    Nullary atoms are written with or without parentheses.  Comments run
    from [%] to the end of the line. *)

exception Error of string
(** Raised on any syntax error, with a human-readable message.  Messages
    for errors attributable to a place in the input are prefixed with the
    1-based [line L, column C: ] of the offending token. *)

val program : string -> Datalog.program
val query : goal:string -> string -> Datalog.query
val rule : string -> Datalog.rule
(** A single rule (trailing period optional). *)

val cq : string -> Cq.t
(** A single rule; the head arguments become the CQ head variables. *)

val ucq : string -> Ucq.t
(** One or more rules sharing a head predicate. *)

val atom : string -> Cq.atom
val instance : string -> Instance.t
(** Period- or whitespace-separated ground facts; identifiers denote
    constants. *)

val views : string -> View.collection
(** A views program: rules grouped by head predicate, each group one view
    (a CQ view for a single rule, a UCQ view otherwise).  A collection is
    read as one Datalog program ({!View}), so a body atom naming a view
    head, the group's own or another's, is that view.  This is the
    format of the CLI's VIEWS files and the service's [load views]
    payloads.
    @raise Error on syntax errors, or if some view head contains a
    constant (the message names the offending view). *)

val views_of_program : Datalog.program -> View.collection
(** {!views} on an already-parsed program. *)
