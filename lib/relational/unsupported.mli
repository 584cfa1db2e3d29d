(** The one error of the decision procedures for inputs outside their
    scope: constants where an algorithm needs variables, repeated head
    variables, non-Boolean or non-CQ queries, views that do not cover
    the query's relations.  {!Forward}, {!Cq_dta}, {!Inverse_rules},
    {!Md_rewrite} and {!Md_decide} raise it, so a caller such as the
    decision service maps every such input with one handler. *)

exception Error of string
(** The message names the procedure and what it does not support. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Error} with the formatted message. *)
