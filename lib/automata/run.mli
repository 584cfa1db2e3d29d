(** Lazy product of an explicit NTA with a symbolic deterministic automaton
    ({!Dta.S}).

    This is how the paper's intersection-and-emptiness arguments are run:
    the NTA is a generator with finitely many concrete symbols (e.g. the
    forward map of Prop. 3), the DTA is a property of the decoded instance
    (e.g. (non-)satisfaction of a CQ), and we search for a code accepted by
    both.  Complementation never needs to be materialized. *)

val find : ?cancel:Dl_cancel.t -> Nta.t -> Dta.t -> Code.t option
(** A code accepted by the NTA on which the DTA accepts, or [None].
    Terminates because the DTA has finitely many states reachable from the
    NTA's symbols.  The search runs in semi-naive rounds and probes
    [cancel] before every DTA step, so the overshoot past a deadline is
    at most one step, not one round (a late round can take seconds).
    @raise Dl_cancel.Cancelled when a probe finds [cancel] cancelled. *)

val check_empty : ?cancel:Dl_cancel.t -> Nta.t -> Dta.t -> bool
(** No such code exists. *)
