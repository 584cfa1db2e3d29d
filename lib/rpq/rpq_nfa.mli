(** Word automata over edge letters, compiled from {!Rpq} expressions.

    A letter is a relation symbol with a traversal direction; an ε-free
    NFA over letters is the common currency of the translation to
    Datalog ({!Rpq_translate}) and of the view-rewriting constructions
    ({!Rpq_views}).

    Emptiness, witnesses and intersection go through the tree-automaton
    layer ({!Nta}): a word is encoded as a unary tree read right-to-left
    (the leaf [$] is the end of the word), an NFA becomes a bottom-up
    automaton whose accepting root states are the NFA's start states,
    and language intersection is {!Nta.product} on the encodings — the
    same machinery the paper's decision procedures run on. *)

type letter = { rel : string; back : bool }

type t = {
  n : int;  (** states are [0 .. n-1] *)
  starts : int list;
  finals : int list;
  delta : (int * letter * int) list;  (** ε-free *)
}

val letter_to_string : letter -> string
(** [r] or [r^]. *)

val word_to_string : letter list -> string
(** Dot-separated letters; the empty word prints as [eps].  The result
    re-parses ({!Rpq.parse}) to an expression denoting exactly that
    word. *)

val compare_letter : letter -> letter -> int

val of_regex : Rpq.t -> t
(** Thompson construction followed by ε-elimination and trimming. *)

val of_raw :
  n:int ->
  starts:int list ->
  finals:int list ->
  trans:(int * letter * int) list ->
  eps:(int * int) list ->
  t
(** ε-eliminate and trim an automaton given with explicit ε-edges — the
    substitution construction of {!Rpq_views} builds its automaton this
    way. *)

val letters : t -> letter list
(** Distinct letters on transitions, sorted. *)

val nullable : t -> bool
val accepts : t -> letter list -> bool

val determinize : alphabet:letter list -> t -> t
(** Subset construction, total over [alphabet] (a sink state is
    included), with a single start state.  Letters of the automaton not
    in [alphabet] are dropped. *)

val trim : t -> t
(** Restrict to the states reachable from a start and co-reachable to a
    final, renumbered in order.  The language is unchanged. *)

val minimize : t -> t
(** The minimal partial DFA of the language: subset construction over
    the automaton's own letters, Moore partition refinement, then
    {!trim}, which drops the sink and every other dead state.  Every
    state is reachable and co-reachable, there is one start (unless the
    language is empty) and at most one successor per (state, letter).
    The subset construction is capped at the trimmed automaton's state
    count plus one (for the sink), so this never takes exponential
    time; and it never grows the automaton: when the cap is hit, or the
    minimal DFA is still larger, the result is [trim a] instead, still
    an NFA. *)

val complement : alphabet:letter list -> t -> t
(** [Σ* \ L], relative to [alphabet]: determinize, then flip finals. *)

val to_nta : t -> Nta.t
(** The unary-tree encoding described above:
    [Nta.accepts (to_nta a) (encode w) ⟺ accepts a w]. *)

val is_empty : t -> bool
val witness : t -> letter list option
(** Some accepted word, via {!Nta.witness} on the encoding. *)

val inter_witness : t -> t -> letter list option
(** A word of [L(a) ∩ L(b)], via {!Nta.product}; [None] iff the
    intersection is empty. *)

val subseteq : alphabet:letter list -> t -> t -> letter list option
(** [subseteq ~alphabet a b] is [None] when [L(a) ⊆ L(b)] (languages
    over [alphabet]), and otherwise a witness word of [L(a) \ L(b)]. *)

val pp : t Fmt.t
