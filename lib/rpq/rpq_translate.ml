(* RPQ → linear Datalog over the automaton's minimal DFA (or, when the
   capped subset construction gives up, its trimmed NFA — see
   [Rpq_nfa.minimize]).  One binary IDB per state for all-pairs
   evaluation, one unary IDB per state for source-anchored evaluation
   (seeded from the reserved [rpq_src] EDB, since rule heads cannot
   carry constants — this keeps the program independent of the source,
   so program-keyed caches stay warm across sources). *)

let default_prefix = "rpq_"

let ans_rel ?(prefix = default_prefix) () = prefix ^ "ans"
let src_rel ?(prefix = default_prefix) () = prefix ^ "src"

(* binary state relations of the all-pairs program *)
let pair_state prefix q = prefix ^ "s" ^ string_of_int q

(* unary state relations of the anchored program — a distinct namespace,
   so the two translations never use one relation at two arities *)
let reach_state prefix q = prefix ^ "r" ^ string_of_int q

let check_alphabet prefix rels =
  List.iter
    (fun r ->
      if
        String.length r >= String.length prefix
        && String.sub r 0 (String.length prefix) = prefix
      then
        invalid_arg
          (Printf.sprintf
             "Rpq_translate: edge relation %S collides with the reserved \
              prefix %S"
             r prefix))
    rels

let v s = Cq.Var s

(* the one-edge step atom: traversing [l] from [x] to [y] *)
let edge_atom (l : Rpq_nfa.letter) x y =
  if l.back then Cq.atom l.rel [ v y; v x ] else Cq.atom l.rel [ v x; v y ]

let check_nfa prefix a =
  check_alphabet prefix (List.map (fun l -> l.Rpq_nfa.rel) (Rpq_nfa.letters a))

(* the programs of an automaton already minimized *)
let pairs_of_min prefix (a : Rpq_nfa.t) =
  let ans = ans_rel ~prefix () in
  let seed =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (p, l, q) ->
            if p = s then
              Some
                (Datalog.rule
                   (Cq.atom (pair_state prefix q) [ v "x"; v "y" ])
                   [ edge_atom l "x" "y" ])
            else None)
          a.Rpq_nfa.delta)
      a.Rpq_nfa.starts
  in
  let step =
    List.map
      (fun (p, l, q) ->
        Datalog.rule
          (Cq.atom (pair_state prefix q) [ v "x"; v "y" ])
          [ Cq.atom (pair_state prefix p) [ v "x"; v "z" ];
            edge_atom l "z" "y"
          ])
      a.Rpq_nfa.delta
  in
  let goal =
    List.map
      (fun f ->
        Datalog.rule
          (Cq.atom ans [ v "x"; v "y" ])
          [ Cq.atom (pair_state prefix f) [ v "x"; v "y" ] ])
      a.Rpq_nfa.finals
  in
  Datalog.make (seed @ step @ goal) ans

let anchored_of_min prefix (a : Rpq_nfa.t) =
  let ans = ans_rel ~prefix () and src = src_rel ~prefix () in
  let seed =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (p, l, q) ->
            if p = s then
              Some
                (Datalog.rule
                   (Cq.atom (reach_state prefix q) [ v "y" ])
                   [ Cq.atom src [ v "x" ]; edge_atom l "x" "y" ])
            else None)
          a.Rpq_nfa.delta)
      a.Rpq_nfa.starts
  in
  let step =
    List.map
      (fun (p, l, q) ->
        Datalog.rule
          (Cq.atom (reach_state prefix q) [ v "y" ])
          [ Cq.atom (reach_state prefix p) [ v "x" ]; edge_atom l "x" "y" ])
      a.Rpq_nfa.delta
  in
  let goal =
    List.map
      (fun f ->
        Datalog.rule
          (Cq.atom ans [ v "y" ])
          [ Cq.atom (reach_state prefix f) [ v "y" ] ])
      a.Rpq_nfa.finals
  in
  Datalog.make (seed @ step @ goal) ans

let pairs_of_nfa ?(prefix = default_prefix) a =
  check_nfa prefix a;
  pairs_of_min prefix (Rpq_nfa.minimize a)

let anchored_of_nfa ?(prefix = default_prefix) a =
  check_nfa prefix a;
  anchored_of_min prefix (Rpq_nfa.minimize a)

(* diagonal rules for the empty word: (x, x) for every node of the
   sub-instance restricted to the expression's alphabet *)
let diagonal_rules prefix rels =
  let ans = ans_rel ~prefix () in
  List.concat_map
    (fun r ->
      [ Datalog.rule (Cq.atom ans [ v "x"; v "x" ]) [ Cq.atom r [ v "x"; v "y" ] ];
        Datalog.rule (Cq.atom ans [ v "x"; v "x" ]) [ Cq.atom r [ v "y"; v "x" ] ]
      ])
    rels

(* The empty word's additions: the diagonal rules to the all-pairs
   program, the source itself to the anchored one. *)
let with_diagonal prefix e (q : Datalog.query) =
  if Rpq.nullable e then
    Datalog.make (q.program @ diagonal_rules prefix (Rpq.rels e)) q.goal
  else q

let with_source prefix e (q : Datalog.query) =
  if Rpq.nullable e then
    let keep =
      Datalog.rule
        (Cq.atom (ans_rel ~prefix ()) [ v "x" ])
        [ Cq.atom (src_rel ~prefix ()) [ v "x" ] ]
    in
    Datalog.make (keep :: q.program) q.goal
  else q

let pairs ?(prefix = default_prefix) e =
  with_diagonal prefix e (pairs_of_nfa ~prefix (Rpq_nfa.of_regex e))

let anchored ?(prefix = default_prefix) e =
  with_source prefix e (anchored_of_nfa ~prefix (Rpq_nfa.of_regex e))

(* One minimization serves the three programs. *)
type programs = {
  all_pairs : Datalog.query;  (* [pairs e] *)
  from_source : Datalog.query;  (* [anchored e] *)
  nonempty_from : Datalog.query;  (* [anchored e] without the empty word *)
}

type t = { expr : Rpq.t; programs : programs option }

let programs_of e =
  let a = Rpq_nfa.of_regex e in
  check_nfa default_prefix a;
  let a = Rpq_nfa.minimize a in
  let nonempty_from = anchored_of_min default_prefix a in
  {
    all_pairs = with_diagonal default_prefix e (pairs_of_min default_prefix a);
    from_source = with_source default_prefix e nonempty_from;
    nonempty_from;
  }

(* An expression the translation rejects keeps no programs: each use
   translates it again, and raises as the untranslated entry points do. *)
let translate e =
  {
    expr = e;
    programs = (try Some (programs_of e) with Invalid_argument _ -> None);
  }

let expr t = t.expr

let programs t =
  match t.programs with Some ps -> ps | None -> programs_of t.expr

let pairs_answers ?strategy ?cancel q inst =
  let tuples = Dl_engine.eval ?strategy ?cancel q inst in
  List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) tuples)

let eval ?strategy ?cancel e inst = pairs_answers ?strategy ?cancel (pairs e) inst

let eval_translated ?strategy ?cancel t inst =
  pairs_answers ?strategy ?cancel (programs t).all_pairs inst

let seeded src inst = Instance.add (Fact.make (src_rel ()) [ src ]) inst

let source_answers ?strategy ?cancel q inst src =
  let tuples = Dl_engine.eval ?strategy ?cancel q (seeded src inst) in
  List.sort_uniq Const.compare (List.map (fun t -> t.(0)) tuples)

let eval_from ?strategy ?cancel e inst src =
  source_answers ?strategy ?cancel (anchored e) inst src

let eval_from_translated ?strategy ?cancel t inst src =
  source_answers ?strategy ?cancel (programs t).from_source inst src

let diagonal e inst =
  if not (Rpq.nullable e) then Const.Set.empty
  else
    let rels = Rpq.rels e in
    Instance.adom (Instance.restrict (fun r -> List.mem r rels) inst)

(* the anchored program seeded with [x], stopped as soon as [y] appears *)
let holds_anchored ?strategy ?cancel q inst x y =
  Dl_engine.holds ?strategy ?cancel q (seeded x inst) [| y |]

let holds_nfa ?strategy ?cancel a inst x y =
  holds_anchored ?strategy ?cancel (anchored_of_nfa a) inst x y

let holds ?strategy ?cancel e inst x y =
  (Const.equal x y && Const.Set.mem x (diagonal e inst))
  || holds_nfa ?strategy ?cancel (Rpq_nfa.of_regex e) inst x y

let holds_translated ?strategy ?cancel t inst x y =
  (Const.equal x y && Const.Set.mem x (diagonal t.expr inst))
  || holds_anchored ?strategy ?cancel (programs t).nonempty_from inst x y
