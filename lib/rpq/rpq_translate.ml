(* RPQ → linear Datalog over the automaton's minimal DFA (or, when the
   capped subset construction gives up, its trimmed NFA — see
   [Rpq_nfa.minimize]).  One binary IDB per state for all-pairs
   evaluation, one unary IDB per state for source-anchored evaluation
   (seeded from the reserved [rpq_src] EDB, since rule heads cannot
   carry constants — this keeps the program independent of the source,
   so program-keyed caches stay warm across sources). *)

let prefix = "rpq_"
let ans_rel = prefix ^ "ans"
let src_rel = prefix ^ "src"

(* binary state relations of the all-pairs program *)
let pair_state q = prefix ^ "s" ^ string_of_int q

(* unary state relations of the anchored program — a distinct namespace,
   so the two translations never use one relation at two arities *)
let reach_state q = prefix ^ "r" ^ string_of_int q

let check_letters a =
  List.iter
    (fun (l : Rpq_nfa.letter) ->
      if
        String.length l.rel >= String.length prefix
        && String.sub l.rel 0 (String.length prefix) = prefix
      then
        invalid_arg
          (Printf.sprintf
             "Rpq_translate: edge relation %S collides with the reserved \
              prefix %S"
             l.rel prefix))
    (Rpq_nfa.letters a)

let v s = Cq.Var s

(* the one-edge step atom: traversing [l] from [x] to [y] *)
let edge_atom (l : Rpq_nfa.letter) x y =
  if l.back then Cq.atom l.rel [ v y; v x ] else Cq.atom l.rel [ v x; v y ]

(* the programs of an automaton already minimized *)
let pairs_of_min (a : Rpq_nfa.t) =
  let seed =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (p, l, q) ->
            if p = s then
              Some
                (Datalog.rule
                   (Cq.atom (pair_state q) [ v "x"; v "y" ])
                   [ edge_atom l "x" "y" ])
            else None)
          a.Rpq_nfa.delta)
      a.Rpq_nfa.starts
  in
  let step =
    List.map
      (fun (p, l, q) ->
        Datalog.rule
          (Cq.atom (pair_state q) [ v "x"; v "y" ])
          [ Cq.atom (pair_state p) [ v "x"; v "z" ]; edge_atom l "z" "y" ])
      a.Rpq_nfa.delta
  in
  let goal =
    List.map
      (fun f ->
        Datalog.rule
          (Cq.atom ans_rel [ v "x"; v "y" ])
          [ Cq.atom (pair_state f) [ v "x"; v "y" ] ])
      a.Rpq_nfa.finals
  in
  Datalog.make (seed @ step @ goal) ans_rel

(* [keep_source]: the empty word's rule deriving the source itself *)
let anchored_of_min ~keep_source (a : Rpq_nfa.t) =
  let seed =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (p, l, q) ->
            if p = s then
              Some
                (Datalog.rule
                   (Cq.atom (reach_state q) [ v "y" ])
                   [ Cq.atom src_rel [ v "x" ]; edge_atom l "x" "y" ])
            else None)
          a.Rpq_nfa.delta)
      a.Rpq_nfa.starts
  in
  let step =
    List.map
      (fun (p, l, q) ->
        Datalog.rule
          (Cq.atom (reach_state q) [ v "y" ])
          [ Cq.atom (reach_state p) [ v "x" ]; edge_atom l "x" "y" ])
      a.Rpq_nfa.delta
  in
  let goal =
    List.map
      (fun f ->
        Datalog.rule
          (Cq.atom ans_rel [ v "y" ])
          [ Cq.atom (reach_state f) [ v "y" ] ])
      a.Rpq_nfa.finals
  in
  let keep =
    if keep_source then
      [ Datalog.rule (Cq.atom ans_rel [ v "x" ]) [ Cq.atom src_rel [ v "x" ] ] ]
    else []
  in
  Datalog.make (keep @ seed @ step @ goal) ans_rel

(* The empty word's rule: [Some rels] when [ε ∈ L], where [rels] is the
   alphabet whose nodes make up the diagonal; [None] when the empty word
   adds nothing. *)
type empty_word = string list option

let empty_word e = if Rpq.nullable e then Some (Rpq.rels e) else None

let diagonal_of (eps : empty_word) inst =
  match eps with
  | None -> Const.Set.empty
  | Some rels ->
      Instance.adom (Instance.restrict (fun r -> List.mem r rels) inst)

let diagonal e inst = diagonal_of (empty_word e) inst

(* One minimization serves both programs: all pairs without the
   diagonal, which {!eval} adds, and anchored with the source rule. *)
type programs = { all_pairs : Datalog.query; from_source : Datalog.query }

(* A translation the alphabet check rejects keeps the error, and every
   use raises it. *)
type t = { eps : empty_word; programs : (programs, string) result }

let make eps a =
  let programs =
    match check_letters a with
    | () ->
        let a = Rpq_nfa.minimize a in
        Ok
          {
            all_pairs = pairs_of_min a;
            from_source = anchored_of_min ~keep_source:(eps <> None) a;
          }
    | exception Invalid_argument m -> Error m
  in
  { eps; programs }

let translate e = make (empty_word e) (Rpq_nfa.of_regex e)
let of_nfa a = make None a

let programs t =
  match t.programs with Ok ps -> ps | Error m -> invalid_arg m

let anchored t inst src =
  ((programs t).from_source, Instance.add (Fact.make src_rel [ src ]) inst)

let eval ?cancel t inst =
  let tuples = Dl_engine.eval ?cancel (programs t).all_pairs inst in
  List.sort_uniq compare
    (Const.Set.fold
       (fun c acc -> (c, c) :: acc)
       (diagonal_of t.eps inst)
       (List.map (fun t -> (t.(0), t.(1))) tuples))

let eval_from ?cancel t inst src =
  let q, seeded = anchored t inst src in
  let tuples = Dl_engine.eval ?cancel q seeded in
  List.sort_uniq Const.compare (List.map (fun t -> t.(0)) tuples)

(* The anchored program seeded with [x], stopped as soon as [y] is
   derived.  Its source rule derives [x] for every [x], but [(x, x)] is
   an all-pairs answer only on the diagonal — which also holds every
   node a nonempty cycle returns to. *)
let holds ?cancel t inst x y =
  let q, seeded = anchored t inst x in
  if t.eps <> None && Const.equal x y then
    Const.Set.mem x (diagonal_of t.eps inst)
  else Dl_engine.holds ?cancel q seeded [| y |]
