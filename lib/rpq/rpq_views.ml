(* Maximal contained rewriting of an RPQ over RPQ views (CDLV / FSS).

   The whole construction works on ε-free word NFAs:

     A_d  = determinize(NFA(Q)) over Σ, total             (Rpq_nfa)
     B    = view-level NFA on A_d's states:
              (p, ω, q)  iff  L(V_ω) ∩ L(A_d[p→q]) ≠ ∅
            starts = A_d starts, finals = A_d NON-finals
     R_max = complement of B over Ω

   B accepts an ω-word iff SOME expansion escapes L(Q), so its
   complement accepts exactly the ω-words all of whose expansions stay
   inside — the maximal rewriting contained in Q.  The transition test
   is a product reachability of the view NFA with A_d, seeded at (view
   starts × {p}); determinism of A_d makes one pass per p sufficient.

   Losslessness is decided on the substitution automaton: R_max with
   every ω-transition replaced by a glued-in copy of V_ω's NFA
   (of_raw absorbs the ε glue), checked against NFA(Q) with subseteq —
   i.e. Nta.product emptiness on the unary-tree encodings. *)

type t = {
  views : (string * Rpq.t) list;
  query : Rpq.t;
  dfa : Rpq_nfa.t;
  rauto : Rpq_nfa.t;
  lossless : bool;
  gap : Rpq_nfa.letter list option;
}

(* all A_d states reachable from [p] by reading some word of [L(v)] —
   BFS on the (v × A_d) product; [dfa] total makes every expansion
   traceable *)
let view_reach (v : Rpq_nfa.t) (dfa : Rpq_nfa.t) p =
  let seen = Array.make (max 1 (v.Rpq_nfa.n * dfa.Rpq_nfa.n)) false in
  let key s q = (s * dfa.Rpq_nfa.n) + q in
  let frontier = ref [] in
  let push s q =
    if not seen.(key s q) then begin
      seen.(key s q) <- true;
      frontier := (s, q) :: !frontier
    end
  in
  List.iter (fun s -> push s p) v.Rpq_nfa.starts;
  while !frontier <> [] do
    let batch = !frontier in
    frontier := [];
    List.iter
      (fun (s, q) ->
        List.iter
          (fun (s1, a, s2) ->
            if s1 = s then
              List.iter
                (fun (q1, a', q2) ->
                  if q1 = q && Rpq_nfa.compare_letter a a' = 0 then push s2 q2)
                dfa.Rpq_nfa.delta)
          v.Rpq_nfa.delta)
      batch
  done;
  let out = ref [] in
  List.iter
    (fun f ->
      for q = dfa.Rpq_nfa.n - 1 downto 0 do
        if seen.(key f q) then out := q :: !out
      done)
    v.Rpq_nfa.finals;
  List.sort_uniq Int.compare !out

(* R_max with each ω-transition (p, ω, q) replaced by a fresh copy of
   V_ω's NFA: ε from p into the copy's starts, ε from its finals to q,
   and a direct ε (p, q) when ε ∈ L(V_ω).  Accepts σ(L(R_max)). *)
let substitution (rauto : Rpq_nfa.t) vnfas =
  let n = ref rauto.Rpq_nfa.n in
  let trans = ref [] and eps = ref [] in
  List.iter
    (fun (p, (l : Rpq_nfa.letter), q) ->
      let v : Rpq_nfa.t = List.assoc l.rel vnfas in
      let off = !n in
      n := !n + v.n;
      List.iter
        (fun (a, x, b) -> trans := (off + a, x, off + b) :: !trans)
        v.delta;
      List.iter (fun s -> eps := (p, off + s) :: !eps) v.starts;
      List.iter (fun f -> eps := (off + f, q) :: !eps) v.finals;
      if Rpq_nfa.nullable v then eps := (p, q) :: !eps)
    rauto.Rpq_nfa.delta;
  Rpq_nfa.of_raw ~n:!n ~starts:rauto.Rpq_nfa.starts
    ~finals:rauto.Rpq_nfa.finals ~trans:!trans ~eps:!eps

let rewrite ~views query =
  let names = List.map fst views in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Rpq_views: duplicate view name";
  List.iter
    (fun n ->
      if String.length n >= 4 && String.sub n 0 4 = "rpq_" then
        invalid_arg
          (Printf.sprintf
             "Rpq_views: view name %S collides with the reserved rpq_ prefix"
             n))
    names;
  let nfaq = Rpq_nfa.of_regex query in
  let vnfas = List.map (fun (n, d) -> (n, Rpq_nfa.of_regex d)) views in
  let sigma =
    List.sort_uniq Rpq_nfa.compare_letter
      (Rpq_nfa.letters nfaq
      @ List.concat_map (fun (_, v) -> Rpq_nfa.letters v) vnfas)
  in
  let dfa = Rpq_nfa.determinize ~alphabet:sigma nfaq in
  let omega =
    List.map (fun n -> { Rpq_nfa.rel = n; back = false }) names
  in
  let btrans =
    List.concat_map
      (fun (name, v) ->
        let l = { Rpq_nfa.rel = name; back = false } in
        List.concat_map
          (fun p -> List.map (fun q -> (p, l, q)) (view_reach v dfa p))
          (List.init dfa.Rpq_nfa.n Fun.id))
      vnfas
  in
  let b =
    {
      Rpq_nfa.n = dfa.Rpq_nfa.n;
      starts = dfa.Rpq_nfa.starts;
      finals =
        List.filter
          (fun s -> not (List.mem s dfa.Rpq_nfa.finals))
          (List.init dfa.Rpq_nfa.n Fun.id);
      delta = btrans;
    }
  in
  let rauto = Rpq_nfa.complement ~alphabet:omega b in
  let gap = Rpq_nfa.subseteq ~alphabet:sigma nfaq (substitution rauto vnfas) in
  { views; query; dfa; rauto; lossless = gap = None; gap }

let image ?strategy ?cancel views inst =
  List.fold_left
    (fun acc (name, def) ->
      List.fold_left
        (fun acc (x, y) -> Instance.add (Fact.make name [ x; y ]) acc)
        acc
        (Rpq_translate.eval ?strategy ?cancel def inst))
    Instance.empty views

let certain ?strategy ?cancel t inst =
  let img = image ?strategy ?cancel t.views inst in
  let tuples =
    Dl_engine.eval ?strategy ?cancel (Rpq_translate.pairs_of_nfa t.rauto) img
  in
  let pairs = List.map (fun tp -> (tp.(0), tp.(1))) tuples in
  (* the base-instance diagonal (see the .mli headnote) *)
  let diag =
    Const.Set.fold
      (fun c acc -> (c, c) :: acc)
      (Rpq_translate.diagonal t.query inst)
      []
  in
  List.sort_uniq compare (diag @ pairs)

let certain_from ?strategy ?cancel t inst src =
  let img = image ?strategy ?cancel t.views inst in
  let img = Instance.add (Fact.make (Rpq_translate.src_rel ()) [ src ]) img in
  let tuples =
    Dl_engine.eval ?strategy ?cancel
      (Rpq_translate.anchored_of_nfa t.rauto)
      img
  in
  let out = List.map (fun tp -> tp.(0)) tuples in
  let out = if Rpq.nullable t.query then src :: out else out in
  List.sort_uniq Const.compare out

let certain_holds ?strategy ?cancel t inst x y =
  (Const.equal x y && Const.Set.mem x (Rpq_translate.diagonal t.query inst))
  || Rpq_translate.holds_nfa ?strategy ?cancel t.rauto
       (image ?strategy ?cancel t.views inst)
       x y
