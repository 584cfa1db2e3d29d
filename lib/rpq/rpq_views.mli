(** View-based rewriting of RPQs, after Calvanese–De Giacomo–Lenzerini–
    Vardi and Francis–Segoufin–Sirangelo (arXiv:1511.00938).

    Given RPQ views [V_ω] and an RPQ [Q], {!rewrite} constructs the
    {e maximal contained rewriting} [R_max]: the regular language over
    the view alphabet [Ω] of exactly the ω-words whose {e every}
    expansion (replace each [ω] by a word of [L(V_ω)]) lands in [L(Q)].
    The construction is the classical automaton one, on this repo's
    machinery: determinize [Q]'s word NFA over the combined edge
    alphabet ({!Rpq_nfa.determinize}), read off a view-level automaton
    [B] whose [(p, ω, q)] transitions witness [L(V_ω) ∩ L(A_d\[p→q\]) ≠ ∅]
    (a product reachability per state pair), and complement [B] over
    [Ω] — emptiness and the final containment certificate both ride the
    tree-automaton layer ({!Rpq_nfa.subseteq}, hence {!Nta.product}).

    Soundness is unconditional: [σ(L(R_max)) ⊆ L(Q)], so every
    rewriting answer is an answer of [Q] on the base graph.  When the
    substitution of the views into [R_max] covers all of [L(Q)] the
    rewriting is {e lossless} and {!certain} equals direct evaluation on
    every instance; otherwise {!gap} holds a witness word of
    [L(Q) \ σ(L(R_max))].

    {2 The empty word, again}

    [ε ∈ L(R_max)] iff [ε ∈ L(Q)] (complementation over a total DFA
    preserves the empty-word verdict), and {!certain} keeps the
    convention of {!Rpq}: the diagonal is drawn from the {e base}
    instance restricted to [Q]'s alphabet, not from the view image.  So
    [R_max] is translated with no empty-word rule
    ({!Rpq_translate.of_nfa}), and the evaluation functions here take
    the base graph, compute the view image internally and add [Q]'s
    diagonal themselves: rewriting answers stay comparable with
    {!Rpq_translate.eval} on the nose. *)

type t = private {
  views : (string * Rpq_translate.t) list;  (** each view, translated *)
  query : Rpq.t;
  dfa : Rpq_nfa.t;  (** [A_d]: [Q]'s NFA determinized over [Σ], total *)
  rauto : Rpq_nfa.t;  (** [R_max], a DFA over the view-name alphabet *)
  program : Rpq_translate.t;
      (** [R_max] translated ({!Rpq_translate.of_nfa}): no empty-word rule *)
  lossless : bool;
  gap : Rpq_nfa.letter list option;
      (** a word of [L(Q) \ σ(L(R_max))]; [None] iff lossless *)
}

val rewrite : views:(string * Rpq.t) list -> Rpq.t -> t
(** Builds [R_max] and translates it and each view once, so the
    evaluation functions below only evaluate.
    @raise Invalid_argument on duplicate view names or view names that
    collide with the reserved [rpq_] relation prefix. *)

(** {2 Certain answers}

    Each function evaluates the view image [V(G)] (one binary relation
    per view name, holding that view's all-pairs answer on the base
    graph), runs {!Rpq_translate}'s trio on [R_max]'s translation over
    it, and adds the query's empty-word answers on the base graph. *)

val certain :
  ?cancel:Dl_cancel.t -> t -> Instance.t -> (Const.t * Const.t) list
(** Rewriting answers on the base graph, plus the query's
    {!Rpq_translate.diagonal}.  Sorted; always a subset of the query's
    {!Rpq_translate.eval}, and equal to it when {!lossless}. *)

val certain_from :
  ?cancel:Dl_cancel.t -> t -> Instance.t -> Const.t -> Const.t list
(** Source-anchored rewriting answers; includes the source iff
    [ε ∈ L(Q)], matching {!Rpq_translate.eval_from}. *)

val certain_holds :
  ?cancel:Dl_cancel.t -> t -> Instance.t -> Const.t -> Const.t -> bool
(** Boolean [(x, y)] membership in {!certain}'s answer. *)
