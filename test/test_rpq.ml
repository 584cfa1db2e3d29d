(* RPQ subsystem tests: parser/printer round-trips and reversal, word
   NFA membership, complementation and minimization, the Datalog
   translation on small graphs, the view-rewriting constructions
   (lossless and lossy cases), and qcheck differentials — the Datalog
   translation against a naive product-construction reachability oracle
   under the indexed, vm and parallel strategies, minimization against
   the trimmed NFA, Boolean membership against all-pairs evaluation,
   plus rewriting soundness/lossless-equality on random view sets. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let n = Rpq_graph.node

(* ---------- surface syntax ---------- *)

let test_parse_print () =
  let rt s = Rpq.to_string (Rpq.parse s) in
  check_string "plain" "a.b" (rt "a.b");
  check_string "implicit concat" "a.b" (rt "a b");
  check_string "star binds tight" "a.b*" (rt "a.b*");
  check_string "group survives" "(a.b)*" (rt "(a.b)*");
  check_string "alt under concat" "a.(b|c)" (rt "a.(b|c)");
  check_string "inverse symbol" "a^" (rt "a^");
  check_string "eps" "eps" (rt "eps");
  check_string "plus opt" "a+.b?" (rt "a+ b?");
  (* print → parse is the identity on structure *)
  let e = Rpq.parse "((a|b^)*.c)+.eps?" in
  check_bool "round trip" true (Rpq.equal e (Rpq.parse (Rpq.to_string e)));
  (* [.] and [|] nest to the right; a left-nested operand keeps its
     parentheses, so distinct trees never print alike *)
  check_string "right-nested concat" "a.b.c" (rt "a.(b.c)");
  check_string "left-nested concat" "(a.b).c" (rt "(a.b).c");
  check_string "left-nested alt" "(a|b)|c" (rt "(a|b)|c");
  let e = Rpq.parse "(a.b).(c|d)|e" in
  check_bool "left-nested round trip" true
    (Rpq.equal e (Rpq.parse (Rpq.to_string e)));
  (* reversal is normalized away and involutive *)
  check_string "composite inverse" "b^.a^" (rt "(a.b)^");
  check_string "inverse of inverse" "a.b" (rt "(a.b)^^");
  let e = Rpq.parse "(a|b^)*.c+" in
  check_bool "rev involutive" true (Rpq.equal e (Rpq.rev (Rpq.rev e)));
  check_bool "nullable star" true (Rpq.nullable (Rpq.parse "a*"));
  check_bool "not nullable" false (Rpq.nullable (Rpq.parse "a*.b"));
  check_bool "rels" true (Rpq.rels (Rpq.parse "b^.a.b") = [ "a"; "b" ]);
  (* errors carry positions *)
  let fails s =
    match Rpq.parse s with
    | _ -> false
    | exception Rpq.Error _ -> true
  in
  check_bool "dangling bar" true (fails "a|");
  check_bool "unclosed paren" true (fails "(a.b");
  check_bool "bad char" true (fails "a-b");
  check_bool "empty" true (fails "");
  (* definition lists *)
  let defs = Rpq.parse_defs "vk = a|a^ ; vf = b ;" in
  check_int "two defs" 2 (List.length defs);
  check_string "def order" "vk" (fst (List.hd defs));
  check_bool "duplicate name" true
    (match Rpq.parse_defs "v = a; v = b" with
    | _ -> false
    | exception Rpq.Error _ -> true);
  (* fingerprints separate direction and structure *)
  check_bool "fp equal" true
    (Rpq.fingerprint (Rpq.parse "a.b*") = Rpq.fingerprint (Rpq.parse "a b*"));
  check_bool "fp direction" true
    (Rpq.fingerprint (Rpq.parse "a") <> Rpq.fingerprint (Rpq.parse "a^"));
  check_bool "fp shape" true
    (Rpq.fingerprint (Rpq.parse "a.(b.c)")
    <> Rpq.fingerprint (Rpq.parse "(a.b).c")
    || Rpq.equal (Rpq.parse "a.(b.c)") (Rpq.parse "(a.b).c"))

(* ---------- word NFAs ---------- *)

let w s =
  (* a word as a letter list, via the parser: "a.b^" → [a; b^] *)
  let rec flat = function
    | Rpq.Sym (r, d) -> [ { Rpq_nfa.rel = r; back = d = Rpq.Bwd } ]
    | Rpq.Seq (x, y) -> flat x @ flat y
    | Rpq.Eps -> []
    | _ -> invalid_arg "not a word"
  in
  if s = "eps" then [] else flat (Rpq.parse s)

let test_nfa () =
  let a = Rpq_nfa.of_regex (Rpq.parse "a.(b|c^)*") in
  check_bool "accepts a" true (Rpq_nfa.accepts a (w "a"));
  check_bool "accepts a.b.c^" true (Rpq_nfa.accepts a (w "a.b.c^"));
  check_bool "rejects eps" false (Rpq_nfa.accepts a (w "eps"));
  check_bool "rejects c^" false (Rpq_nfa.accepts a (w "c^"));
  check_bool "rejects a.c" false (Rpq_nfa.accepts a (w "a.c"));
  check_bool "nullable star" true
    (Rpq_nfa.nullable (Rpq_nfa.of_regex (Rpq.parse "(a.b)*")));
  (* determinization and complement preserve/flip membership *)
  let alphabet = Rpq_nfa.letters a in
  let d = Rpq_nfa.determinize ~alphabet a in
  let c = Rpq_nfa.complement ~alphabet a in
  List.iter
    (fun word ->
      let word = w word in
      check_bool "det agrees" (Rpq_nfa.accepts a word) (Rpq_nfa.accepts d word);
      check_bool "complement flips" (not (Rpq_nfa.accepts a word))
        (Rpq_nfa.accepts c word))
    [ "eps"; "a"; "b"; "c^"; "a.b"; "a.c^"; "a.b.b.c^" ];
  (* emptiness and witnesses ride the tree-automaton encoding *)
  check_bool "nonempty" false (Rpq_nfa.is_empty a);
  (match Rpq_nfa.witness a with
  | Some word -> check_bool "witness accepted" true (Rpq_nfa.accepts a word)
  | None -> Alcotest.fail "expected a witness");
  let b = Rpq_nfa.of_regex (Rpq.parse "a.b.b") in
  (match Rpq_nfa.inter_witness a b with
  | Some word ->
      check_bool "inter witness in both" true
        (Rpq_nfa.accepts a word && Rpq_nfa.accepts b word)
  | None -> Alcotest.fail "expected an intersection witness");
  check_bool "disjoint" true
    (Rpq_nfa.inter_witness a (Rpq_nfa.of_regex (Rpq.parse "b.a")) = None);
  (* containment: a.b* ⊆ a.(b|c^)* but not conversely *)
  let small = Rpq_nfa.of_regex (Rpq.parse "a.b*") in
  check_bool "subset holds" true
    (Rpq_nfa.subseteq ~alphabet small a = None);
  (match Rpq_nfa.subseteq ~alphabet a small with
  | Some word ->
      check_bool "gap word separates" true
        (Rpq_nfa.accepts a word && not (Rpq_nfa.accepts small word))
  | None -> Alcotest.fail "expected a containment gap");
  check_string "word printing" "a.b^" (Rpq_nfa.word_to_string (w "a.b^"));
  check_string "empty word prints" "eps" (Rpq_nfa.word_to_string [])

(* the translation runs on the minimal DFA: pinned sizes for the
   serve-churn query and the closure shape *)
let test_minimize () =
  let states s =
    (Rpq_nfa.minimize (Rpq_nfa.of_regex (Rpq.parse s))).Rpq_nfa.n
  in
  let q = Rpq.parse "(knows|follows)*.follows" in
  check_int "churn query: thompson states" 9 (Rpq_nfa.of_regex q).Rpq_nfa.n;
  check_int "churn query: minimal states" 2 (states "(knows|follows)*.follows");
  let prog = (Rpq_translate.anchored q).Datalog.program in
  check_int "churn query: anchored rules" 7 (List.length prog);
  let heads =
    List.sort_uniq String.compare
      (List.map (fun r -> r.Datalog.head.Cq.rel) prog)
  in
  check_int "churn query: state relations" 2
    (List.length (List.filter (fun r -> r <> Rpq_translate.ans_rel ()) heads));
  check_int "e* has one state" 1 (states "e*");
  check_int "e.e* has two" 2 (states "e.e*");
  (* an empty language minimizes to no states at all *)
  let empty = { Rpq_nfa.n = 2; starts = [ 0 ]; finals = []; delta = [] } in
  check_int "empty language" 0 (Rpq_nfa.minimize empty).Rpq_nfa.n

(* ---------- Datalog translation ---------- *)

let test_translate () =
  let g = Rpq_graph.chain ~label:"e" 5 in
  (* e* on a 4-edge chain: all ordered pairs i ≤ j *)
  let pairs = Rpq_translate.eval (Rpq.parse "e*") g in
  check_int "chain closure" 15 (List.length pairs);
  check_bool "includes diagonal" true (List.mem (n 0, n 0) pairs);
  check_bool "includes span" true (List.mem (n 0, n 4) pairs);
  check_bool "directed" false (List.mem (n 4, n 0) pairs);
  (* inverse edges walk the chain backwards *)
  let back = Rpq_translate.eval (Rpq.parse "e^.e^") g in
  check_bool "two steps back" true (List.mem (n 3, n 1) back);
  check_int "back pairs" 3 (List.length back);
  (* anchored evaluation *)
  let reach = Rpq_translate.eval_from (Rpq.parse "e.e*") g (n 1) in
  check_bool "from n1" true (reach = [ n 2; n 3; n 4 ]);
  let reach0 = Rpq_translate.eval_from (Rpq.parse "e*") g (n 1) in
  check_bool "nullable anchors include source" true (List.mem (n 1) reach0);
  check_bool "holds" true (Rpq_translate.holds (Rpq.parse "e.e") g (n 0) (n 2));
  check_bool "holds rejects" false
    (Rpq_translate.holds (Rpq.parse "e.e") g (n 2) (n 0));
  (* ε-semantics: diagonal only over the sub-instance of the alphabet *)
  let g2 = Instance.add (Fact.make "f" [ n 7; n 8 ]) g in
  let opt = Rpq_translate.eval (Rpq.parse "e?") g2 in
  check_bool "alphabet node on diagonal" true (List.mem (n 3, n 3) opt);
  check_bool "foreign node off diagonal" false (List.mem (n 7, n 7) opt);
  check_int "eps alone is empty" 0
    (List.length (Rpq_translate.eval Rpq.Eps g2));
  (* reserved prefix is rejected *)
  check_bool "prefix collision" true
    (match Rpq_translate.pairs (Rpq.parse "rpq_x") with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* every strategy agrees on a mixed-direction query *)
  let q = Rpq.parse "(e|e^)*.e" in
  let expect = Rpq_translate.eval ~strategy:Dl_engine.Naive q g in
  List.iter
    (fun s ->
      check_bool
        ("strategy " ^ Dl_engine.to_string s)
        true
        (Rpq_translate.eval ~strategy:s q g = expect))
    Dl_engine.all

(* ---------- view rewriting ---------- *)

let test_rewrite_lossless () =
  let views = [ ("vk", Rpq.parse "k|k^"); ("vf", Rpq.parse "f") ] in
  let r = Rpq_views.rewrite ~views (Rpq.parse "(k|k^)*.f") in
  check_bool "lossless" true r.Rpq_views.lossless;
  check_bool "no gap" true (r.Rpq_views.gap = None);
  (* a small social graph: knows-chain with a follows edge off the end *)
  let g =
    Instance.of_list
      [
        Fact.make "k" [ n 0; n 1 ];
        Fact.make "k" [ n 2; n 1 ];
        Fact.make "f" [ n 2; n 3 ];
        Fact.make "f" [ n 4; n 5 ];
      ]
  in
  let direct = Rpq_translate.eval (Rpq.parse "(k|k^)*.f") g in
  let certain = Rpq_views.certain r g in
  check_bool "lossless certain = direct" true (certain = direct);
  check_bool "crosses the undirected chain" true (List.mem (n 0, n 3) direct);
  let from0 = Rpq_views.certain_from r g (n 0) in
  check_bool "anchored matches" true
    (from0 = Rpq_translate.eval_from (Rpq.parse "(k|k^)*.f") g (n 0));
  check_bool "certain_holds" true (Rpq_views.certain_holds r g (n 0) (n 3));
  check_bool "certain_holds rejects" false
    (Rpq_views.certain_holds r g (n 3) (n 0))

let test_rewrite_lossy () =
  (* the view exposes only the two-step composition: a* cannot be
     rebuilt — odd-length words are lost *)
  let views = [ ("v2", Rpq.parse "a.a") ] in
  let r = Rpq_views.rewrite ~views (Rpq.parse "a*") in
  check_bool "lossy" false r.Rpq_views.lossless;
  (match r.Rpq_views.gap with
  | Some word ->
      check_bool "gap word is odd" true (List.length word mod 2 = 1);
      check_bool "gap word in Q" true
        (Rpq_nfa.accepts (Rpq_nfa.of_regex (Rpq.parse "a*")) word)
  | None -> Alcotest.fail "expected a gap witness");
  (* soundness still holds: certain answers are a subset of direct *)
  let g = Rpq_graph.chain ~label:"a" 6 in
  let direct = Rpq_translate.eval (Rpq.parse "a*") g in
  let certain = Rpq_views.certain r g in
  check_bool "sound" true
    (List.for_all (fun p -> List.mem p direct) certain);
  (* even-length spans survive the rewriting, odd ones don't *)
  check_bool "even span kept" true (List.mem (n 0, n 4) certain);
  check_bool "odd span lost" false (List.mem (n 0, n 3) certain);
  (* a query the views cannot touch at all *)
  let r0 = Rpq_views.rewrite ~views:[ ("v", Rpq.parse "b") ] (Rpq.parse "a") in
  check_bool "empty rewriting" false r0.Rpq_views.lossless;
  check_bool "nothing certain" true (Rpq_views.certain r0 g = []);
  check_bool "nothing holds" false (Rpq_views.certain_holds r0 g (n 0) (n 1));
  (* Boolean mode agrees with the all-pairs answers, diagonal included,
     on nodes in and out of the graph *)
  let nodes = [ n 0; n 1; n 3; n 4; n 9 ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check_bool "certain_holds = certain" (List.mem (x, y) certain)
            (Rpq_views.certain_holds r g x y))
        nodes)
    nodes;
  check_bool "duplicate views rejected" true
    (match Rpq_views.rewrite ~views:[ ("v", Rpq.Eps); ("v", Rpq.Eps) ] Rpq.Eps with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- differential oracle ---------- *)

(* naive product-construction reachability: BFS the (graph × NFA)
   product from every alphabet node — no Datalog anywhere *)
let oracle_pairs e inst =
  let nfa = Rpq_nfa.of_regex e in
  let rels = Rpq.rels e in
  let sub = Instance.restrict (fun r -> List.mem r rels) inst in
  let nodes = Const.Set.elements (Instance.adom sub) in
  let succ (l : Rpq_nfa.letter) x =
    if l.back then
      List.map (fun t -> t.(0)) (Instance.tuples_with inst l.rel [ (1, x) ])
    else List.map (fun t -> t.(1)) (Instance.tuples_with inst l.rel [ (0, x) ])
  in
  let from x =
    let seen = Hashtbl.create 16 in
    let frontier = ref [] in
    let push v q =
      if not (Hashtbl.mem seen (v, q)) then begin
        Hashtbl.add seen (v, q) ();
        frontier := (v, q) :: !frontier
      end
    in
    List.iter (fun q -> push x q) nfa.Rpq_nfa.starts;
    while !frontier <> [] do
      let batch = !frontier in
      frontier := [];
      List.iter
        (fun (v, q) ->
          List.iter
            (fun (p, l, p') -> if p = q then List.iter (fun v' -> push v' p') (succ l v))
            nfa.Rpq_nfa.delta)
        batch
    done;
    (* (v, q) with q final witnesses a path x →* v in the language; the
       0-edge pair (x, start) counts only when start is final, i.e. only
       when ε ∈ L — exactly the intended diagonal *)
    Hashtbl.fold
      (fun (v, q) () acc ->
        if List.mem q nfa.Rpq_nfa.finals then (x, v) :: acc else acc)
      seen []
  in
  List.sort_uniq compare (List.concat_map from nodes)

let gen_rpq =
  let open QCheck.Gen in
  let sym =
    map2
      (fun r b -> Rpq.Sym (r, if b then Rpq.Bwd else Rpq.Fwd))
      (oneofl [ "a"; "b"; "c" ])
      bool
  in
  let rec go fuel =
    if fuel <= 0 then frequency [ (4, sym); (1, return Rpq.Eps) ]
    else
      frequency
        [
          (3, sym);
          (1, return Rpq.Eps);
          (3, map2 (fun a b -> Rpq.Seq (a, b)) (go (fuel / 2)) (go (fuel / 2)));
          (3, map2 (fun a b -> Rpq.Alt (a, b)) (go (fuel / 2)) (go (fuel / 2)));
          (2, map (fun a -> Rpq.Star a) (go (fuel - 1)));
          (1, map (fun a -> Rpq.Plus a) (go (fuel - 1)));
          (1, map (fun a -> Rpq.Opt a) (go (fuel - 1)));
        ]
  in
  (go, int_bound 6 >>= go)

let gen_rpq_go = fst gen_rpq
let gen_rpq = snd gen_rpq

(* the rewriting construction determinizes twice — keep its inputs a
   notch smaller than the evaluation differentials' *)
let gen_rpq_small = QCheck.Gen.(int_bound 4 >>= gen_rpq_go)

let gen_graph =
  let open QCheck.Gen in
  map
    (fun edges ->
      Instance.of_list
        (List.map
           (fun (r, i, j) -> Fact.make r [ n i; n j ])
           edges))
    (list_size (int_bound 20)
       (triple (oneofl [ "a"; "b"; "c" ]) (int_bound 5) (int_bound 5)))

let pair_print (e, g) =
  Fmt.str "%s on %a" (Rpq.to_string e) Instance.pp g

let rpq_pair_arb = QCheck.make ~print:pair_print QCheck.Gen.(pair gen_rpq gen_graph)

let prop_strategy name strategy =
  QCheck.Test.make ~name ~count:120 rpq_pair_arb (fun (e, g) ->
      Rpq_translate.eval ~strategy e g = oracle_pairs e g)

let prop_indexed = prop_strategy "rpq indexed = oracle" Dl_engine.Indexed
let prop_vm = prop_strategy "rpq vm = oracle" Dl_engine.Vm

let prop_parallel =
  QCheck.Test.make ~name:"rpq parallel = oracle" ~count:120 rpq_pair_arb
    (fun (e, g) ->
      Dl_parallel.set_domains 3;
      Fun.protect
        ~finally:(fun () -> Dl_parallel.set_domains 1)
        (fun () ->
          Rpq_translate.eval ~strategy:Dl_engine.Parallel e g = oracle_pairs e g))

let prop_anchored =
  QCheck.Test.make ~name:"rpq anchored = oracle slice" ~count:120 rpq_pair_arb
    (fun (e, g) ->
      let all = oracle_pairs e g in
      List.for_all
        (fun src ->
          let got = Rpq_translate.eval_from e g src in
          let expect =
            List.sort_uniq Const.compare
              ((if Rpq.nullable e then [ src ] else [])
              @ List.filter_map
                  (fun (x, y) -> if Const.equal x src then Some y else None)
                  all)
          in
          got = expect)
        [ n 0; n 3 ])

(* minimize: a trim DFA with one start, no larger than the trimmed NFA,
   and language-equivalent to it — or, when the capped subset
   construction gave up, exactly the trimmed NFA *)
let prop_minimize =
  QCheck.Test.make ~name:"minimize: trim DFA, equivalent" ~count:300
    (QCheck.make ~print:Rpq.to_string gen_rpq)
    (fun e ->
      let a = Rpq_nfa.of_regex e in
      let t = Rpq_nfa.trim a and m = Rpq_nfa.minimize a in
      let deterministic =
        let moves = List.map (fun (p, l, _) -> (p, l)) m.Rpq_nfa.delta in
        List.length m.Rpq_nfa.starts = 1
        && List.length (List.sort_uniq compare moves) = List.length moves
      in
      let alphabet = Rpq_nfa.letters a in
      (deterministic || m = t)
      && (Rpq_nfa.trim m).Rpq_nfa.n = m.Rpq_nfa.n
      && m.Rpq_nfa.n <= t.Rpq_nfa.n
      && Rpq_nfa.subseteq ~alphabet a m = None
      && Rpq_nfa.subseteq ~alphabet m a = None)

(* Boolean mode agrees with all-pairs membership, on nodes in and out
   of the graph (n 7 never occurs in [gen_graph]) *)
let prop_holds =
  QCheck.Test.make ~name:"rpq holds = all-pairs membership" ~count:120
    rpq_pair_arb (fun (e, g) ->
      let all = Rpq_translate.eval e g in
      let nodes = [ n 0; n 2; n 5; n 7 ] in
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> Rpq_translate.holds e g x y = List.mem (x, y) all)
            nodes)
        nodes)

let prop_rewrite_sound =
  QCheck.Test.make ~name:"rewriting sound, lossless exact" ~count:60
    (QCheck.make
       ~print:(fun ((v1, v2, q), g) ->
         Fmt.str "v1=%s v2=%s q=%s on %a" (Rpq.to_string v1) (Rpq.to_string v2)
           (Rpq.to_string q) Instance.pp g)
       QCheck.Gen.(pair (triple gen_rpq_small gen_rpq_small gen_rpq_small) gen_graph))
    (fun ((v1, v2, q), g) ->
      let r = Rpq_views.rewrite ~views:[ ("v1", v1); ("v2", v2) ] q in
      let direct = Rpq_translate.eval q g in
      let certain = Rpq_views.certain r g in
      List.for_all (fun p -> List.mem p direct) certain
      && ((not r.Rpq_views.lossless) || certain = direct))

let suite =
  [
    Alcotest.test_case "parse and print" `Quick test_parse_print;
    Alcotest.test_case "word nfa" `Quick test_nfa;
    Alcotest.test_case "minimal dfa" `Quick test_minimize;
    Alcotest.test_case "datalog translation" `Quick test_translate;
    Alcotest.test_case "lossless rewriting" `Quick test_rewrite_lossless;
    Alcotest.test_case "lossy rewriting" `Quick test_rewrite_lossy;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_indexed;
        prop_vm;
        prop_parallel;
        prop_anchored;
        prop_minimize;
        prop_holds;
        prop_rewrite_sound;
      ]
