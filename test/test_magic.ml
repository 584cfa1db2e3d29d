(* Tests for the magic-sets transformation (Dl_magic) and the planner
   that applies it per goal (Dl_engine.holds): adornment generation on
   the paper's example programs, demand pruning, the planner's choice on
   point goals, and differential agreement of the magic arm, the VM arm
   and the planner with the naive evaluator on random
   program/instance/goal triples. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let c = Const.named

let tc =
  Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

(* the paper's §2 start query: x reaches an element of U along R-edges *)
let qstart =
  Parse.query ~goal:"Goal"
    "P(x) <- U(x). P(x) <- R(x,y), P(y). Goal(x) <- P(x)."

let chain n =
  Instance.of_list
    (List.init n (fun i ->
         Fact.make "E"
           [ c (Printf.sprintf "a%d" i); c (Printf.sprintf "a%d" (i + 1)) ]))

let test_names () =
  check_string "pattern" "bf" (Dl_magic.pattern_string [| true; false |]);
  check_string "adorned" "T#bf" (Dl_magic.adorned_name "T" [| true; false |]);
  check_string "magic" "m#T#bf" (Dl_magic.magic_name "T" [| true; false |])

let test_tc_adornments () =
  let m = Dl_magic.transform tc [| true; false |] in
  Alcotest.(check (list (pair string string)))
    "only T#bf is demanded" [ ("T", "bf") ] (Dl_magic.adornments m);
  check_string "goal" "T#bf" m.Dl_magic.query.Datalog.goal;
  check_string "magic goal" "m#T#bf" m.Dl_magic.magic_goal;
  (* copy rule + base rule + (magic rule + adorned rule) for the
     recursive rule *)
  check_int "rule count" 4 (List.length m.Dl_magic.query.Datalog.program)

let test_qstart_adornments () =
  let m = Dl_magic.transform qstart [| true |] in
  Alcotest.(check (list (pair string string)))
    "goal and subgoal, both bound"
    [ ("Goal", "b"); ("P", "b") ]
    (Dl_magic.adornments m);
  (* the free-goal variant still binds the recursive subgoal: in
     P(x) <- R(x,y), P(y) the SIP has bound [y] once R is evaluated *)
  let mf = Dl_magic.transform qstart [| false |] in
  Alcotest.(check (list (pair string string)))
    "free goal, bound recursive call"
    [ ("Goal", "f"); ("P", "b"); ("P", "f") ]
    (Dl_magic.adornments mf)

let test_diamond_adornments () =
  let q = Diamonds.query in
  check_bool "diamond goal is intensional" true (Dl_magic.applicable q);
  let m = Dl_magic.transform q (Array.make (Datalog.goal_arity q) false) in
  check_bool "walk predicate adorned" true
    (List.exists (fun (r, _) -> r = "W") (Dl_magic.adornments m));
  check_bool "an all-free walk does not prune" false m.Dl_magic.prunes

let test_transform_cache () =
  (* a structurally equal program built afresh shares the transform, by
     fingerprint; another pattern does not *)
  let again () =
    Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
  in
  let m = Dl_magic.transform tc [| true; true |] in
  check_bool "physically equal program hits" true
    (Dl_magic.transform tc [| true; true |] == m);
  check_bool "fresh equal program hits" true
    (Dl_magic.transform (again ()) [| true; true |] == m);
  check_bool "another pattern misses" true
    (Dl_magic.transform (again ()) [| true; false |] != m)

let test_seed () =
  let m = Dl_magic.transform tc [| true; false |] in
  let f = Dl_magic.seed m [| c "a0"; c "a4" |] in
  check_string "seed relation" "m#T#bf" f.Fact.rel;
  check_int "seed keeps bound positions only" 1 (Fact.arity f);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument
       "Dl_magic.seed: tuple arity does not match the goal pattern")
    (fun () -> ignore (Dl_magic.seed m [| c "a0" |]))

let test_demand_pruning () =
  (* on a 12-chain with demand seeded at a8, only the 10 closure facts
     reachable from a8 are derived — not the 78 of the full closure *)
  let m = Dl_magic.transform tc [| true; false |] in
  let i = Instance.add (Dl_magic.seed m [| c "a8"; c "a12" |]) (chain 12) in
  let fp = Dl_engine.fixpoint m.Dl_magic.query.Datalog.program i in
  check_int "only demanded T#bf facts" 10
    (List.length (Instance.tuples fp "T#bf"));
  check_bool "goal tuple derived" true
    (Dl_engine.holds m.Dl_magic.query i [| c "a8"; c "a12" |])

let test_idb_facts_survive () =
  (* instance facts of intensional predicates flow through the copy rule *)
  let i = Instance.of_list [ Fact.make "T" [ c "u"; c "v" ] ] in
  check_bool "T fact visible through magic" true
    (Dl_magic.holds tc i [| c "u"; c "v" |]);
  check_bool "and composes with rules" true
    (Dl_magic.holds tc
       (Instance.add (Fact.make "E" [ c "t"; c "u" ]) i)
       [| c "t"; c "v" |])

let test_engine_strategies () =
  let i = chain 4 in
  List.iter
    (fun (s, name) ->
      check_bool (name ^ " holds") true
        (Dl_engine.holds ~strategy:s tc i [| c "a0"; c "a4" |]);
      check_bool (name ^ " rejects") false
        (Dl_engine.holds ~strategy:s tc i [| c "a4"; c "a0" |]);
      check_int (name ^ " eval") 10
        (List.length (Dl_engine.eval ~strategy:s tc i));
      check_bool (name ^ " boolean") true
        (Dl_engine.holds_boolean ~strategy:s tc i))
    [ (Dl_engine.Naive, "naive"); (Dl_engine.Vm, "vm") ];
  check_bool "magic arm holds" true (Dl_magic.holds tc i [| c "a0"; c "a4" |]);
  check_bool "magic arm rejects" false
    (Dl_magic.holds tc i [| c "a4"; c "a0" |]);
  (* extensional goal: nothing to rewrite, the planner runs the VM *)
  let edb = Datalog.make tc.Datalog.program "E" in
  check_bool "edb goal is not applicable" false (Dl_magic.applicable edb);
  check_bool "edb goal runs the vm" false
    (Dl_engine.uses_magic edb [| c "a0"; c "a1" |]);
  check_bool "edb goal holds" true (Dl_engine.holds edb i [| c "a0"; c "a1" |])

(* --- the planner's choice -------------------------------------------- *)

let left_tc =
  Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- T(x,z), E(z,y)."

let same_gen =
  Parse.query ~goal:"S"
    "S(x,y) <- E(p,x), E(p,y). S(x,y) <- E(p,x), S(p,q), E(q,y)."

(* the binary tree on 0..n-1, E(parent, child) *)
let tree n =
  Instance.of_list
    (List.init (n - 1) (fun k ->
         let child = k + 1 in
         Fact.make "E"
           [ c (Printf.sprintf "a%d" ((child - 1) / 2));
             c (Printf.sprintf "a%d" child) ]))

let adornments q arity =
  Dl_magic.adornments (Dl_magic.transform q (Dl_magic.all_bound arity))

let test_planner_magic () =
  let pair = [| c "a3"; c "a9" |] in
  List.iter
    (fun (name, q, expect) ->
      Alcotest.(check (list (pair string string)))
        (name ^ " adornments") expect (adornments q 2);
      check_bool (name ^ " point goal runs magic") true
        (Dl_engine.uses_magic q pair))
    [
      ("tc", tc, [ ("T", "bb") ]);
      ("left tc", left_tc, [ ("T", "bb"); ("T", "bf") ]);
      ("same-generation", same_gen, [ ("S", "bb"); ("S", "bf") ]);
    ];
  let i = chain 12 in
  check_bool "left tc point goal" true
    (Dl_engine.holds left_tc i [| c "a3"; c "a9" |]);
  check_bool "left tc point goal rejects" false
    (Dl_engine.holds left_tc i [| c "a9"; c "a3" |]);
  let t = tree 31 in
  check_bool "same generation: two leaves" true
    (Dl_engine.holds same_gen t [| c "a15"; c "a30" |]);
  check_bool "different generations" false
    (Dl_engine.holds same_gen t [| c "a7"; c "a30" |])

let test_planner_vm () =
  (* the anchored RPQ program: the demand on the answer binds y, but the
     state relations it reads are also demanded all-free *)
  let rpq, _ =
    Rpq_translate.anchored
      (Rpq_translate.translate (Rpq.parse "(knows|follows)*.follows"))
      Instance.empty (c "a0")
  in
  check_bool "anchored rpq is applicable" true (Dl_magic.applicable rpq);
  check_bool "anchored rpq has an all-free adornment" true
    (List.exists
       (fun (_, a) -> String.for_all (Char.equal 'f') a)
       (adornments rpq 1));
  check_bool "anchored rpq runs the vm" false
    (Dl_engine.uses_magic rpq [| c "a1" |]);
  (* all-free goals: a Boolean goal, and the empty tuple in general *)
  let boolean =
    Parse.query ~goal:"G"
      "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y). G() <- T(x,y)."
  in
  check_bool "boolean goal runs the vm" false
    (Dl_engine.uses_magic boolean [||]);
  check_bool "boolean goal holds" true (Dl_engine.holds boolean (chain 3) [||]);
  check_bool "diamond goal runs the vm" false
    (Dl_engine.uses_magic Diamonds.query [||])

(* differential properties on the shared random program/instance
   generator.  The magic arm is forced through [Dl_magic.holds], so the
   transform is tested on every applicable goal, including those the
   planner sends to the VM; [eval] and [holds_boolean] run on the
   pool's tuples and on a Boolean wrapper [B() <- G(x̄)], whose
   transform demands [G] all-free. *)

let consts = [ c "e0"; c "e1"; c "e2"; c "e3" ]

(* every tuple of the given arity over the generator's constant pool *)
let pool_tuples arity =
  if arity = 1 then List.map (fun x -> [| x |]) consts
  else List.concat_map (fun x -> List.map (fun y -> [| x; y |]) consts) consts

let boolean_of p goal arity =
  let xs = List.init arity (fun k -> Cq.Var (Printf.sprintf "x%d" k)) in
  Datalog.make (Datalog.rule (Cq.atom "B" []) [ Cq.atom goal xs ] :: p) "B"

let norm ts = List.sort compare (List.map Array.to_list ts)

let prop_magic_eval_differential =
  QCheck.Test.make ~name:"magic eval = naive eval" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, arity) ->
          let q = Datalog.make p goal in
          (not (Dl_magic.applicable q))
          || norm (List.filter (Dl_magic.holds q i) (pool_tuples arity))
             = norm (Dl_engine.eval ~strategy:Dl_engine.Naive q i))
        Test_datalog.dg_idbs)

let prop_magic_boolean_differential =
  QCheck.Test.make ~name:"magic holds_boolean = naive" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, arity) ->
          Dl_magic.holds (boolean_of p goal arity) i [||]
          = Dl_engine.holds_boolean ~strategy:Dl_engine.Naive
              (Datalog.make p goal) i)
        Test_datalog.dg_idbs)

let prop_magic_holds_differential =
  (* bound-goal demand: membership of concrete tuples over the generator's
     constant pool agrees with naive fixpoint membership *)
  QCheck.Test.make ~name:"magic holds = naive membership" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, arity) ->
          let q = Datalog.make p goal in
          (not (Dl_magic.applicable q))
          || List.for_all
               (fun tup ->
                 Dl_magic.holds q i tup
                 = Dl_engine.holds ~strategy:Dl_engine.Naive q i tup)
               (pool_tuples arity))
        Test_datalog.dg_idbs)

(* the planner against the oracle and both of its arms, on bound goals
   (every pool tuple) and free ones (the Boolean wrapper's empty tuple),
   whichever arm the planner picks for them *)
let prop_planner_differential =
  QCheck.Test.make ~name:"planner holds = naive, magic and vm arms" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, arity) ->
          List.for_all
            (fun (q, tup) ->
              let got = Dl_engine.holds q i tup in
              got = Dl_engine.holds ~strategy:Dl_engine.Naive q i tup
              && got = Dl_semi.holds q i tup
              && ((not (Dl_magic.applicable q)) || got = Dl_magic.holds q i tup))
            ((boolean_of p goal arity, [||])
            :: List.map
                 (fun tup -> (Datalog.make p goal, tup))
                 (pool_tuples arity)))
        Test_datalog.dg_idbs)

let suite =
  [
    Alcotest.test_case "name mangling" `Quick test_names;
    Alcotest.test_case "tc adornments" `Quick test_tc_adornments;
    Alcotest.test_case "qstart adornments" `Quick test_qstart_adornments;
    Alcotest.test_case "diamond adornments" `Quick test_diamond_adornments;
    Alcotest.test_case "transform cache" `Quick test_transform_cache;
    Alcotest.test_case "magic seeds" `Quick test_seed;
    Alcotest.test_case "demand pruning" `Quick test_demand_pruning;
    Alcotest.test_case "idb instance facts survive" `Quick
      test_idb_facts_survive;
    Alcotest.test_case "engine strategies agree on tc" `Quick
      test_engine_strategies;
    Alcotest.test_case "planner: magic on point goals" `Quick
      test_planner_magic;
    Alcotest.test_case "planner: vm on all-free adornments" `Quick
      test_planner_vm;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_magic_eval_differential;
        prop_magic_boolean_differential;
        prop_magic_holds_differential;
        prop_planner_differential;
      ]
