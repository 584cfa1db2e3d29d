(* Tests for the magic-sets transformation (Dl_magic) and the strategy
   facade (Dl_engine): adornment generation on the paper's example
   programs, demand pruning, and differential agreement of the magic
   engine with the naive evaluator on random
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
  let m = Dl_magic.transform q (Dl_magic.all_free (Datalog.goal_arity q)) in
  check_bool "walk predicate adorned" true
    (List.exists (fun (r, _) -> r = "W") (Dl_magic.adornments m))

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
    (Dl_engine.holds ~strategy:Dl_engine.Magic tc i [| c "u"; c "v" |]);
  check_bool "and composes with rules" true
    (Dl_engine.holds ~strategy:Dl_engine.Magic tc
       (Instance.add (Fact.make "E" [ c "t"; c "u" ]) i)
       [| c "t"; c "v" |])

let test_engine_strategies () =
  let i = chain 4 in
  List.iter
    (fun s ->
      let name = Dl_engine.to_string s in
      check_bool (name ^ " holds") true
        (Dl_engine.holds ~strategy:s tc i [| c "a0"; c "a4" |]);
      check_bool (name ^ " rejects") false
        (Dl_engine.holds ~strategy:s tc i [| c "a4"; c "a0" |]);
      check_int (name ^ " eval") 10
        (List.length (Dl_engine.eval ~strategy:s tc i));
      check_bool (name ^ " boolean") true
        (Dl_engine.holds_boolean ~strategy:s tc i))
    Dl_engine.all;
  (* extensional goal: magic falls back to the vm engine *)
  let edb = Datalog.make tc.Datalog.program "E" in
  check_bool "edb fallback" true
    (Dl_engine.holds ~strategy:Dl_engine.Magic edb i [| c "a0"; c "a1" |]);
  check_bool "of_string/to_string roundtrip" true
    (List.for_all
       (fun s -> Dl_engine.of_string (Dl_engine.to_string s) = Some s)
       Dl_engine.all);
  check_bool "of_string rejects junk" true (Dl_engine.of_string "fast" = None)

(* differential properties: the magic engine agrees with the naive
   scan-based evaluator (and hence with the vm one, which has its own
   differential suites in Test_datalog and Test_vm) on random program/instance/goal
   triples *)

let norm ts = List.sort compare (List.map Array.to_list ts)

let prop_magic_eval_differential =
  QCheck.Test.make ~name:"magic eval = naive eval" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          norm (Dl_engine.eval ~strategy:Dl_engine.Magic q i)
          = norm (Dl_engine.eval ~strategy:Dl_engine.Naive q i))
        Test_datalog.dg_idbs)

let prop_magic_boolean_differential =
  QCheck.Test.make ~name:"magic holds_boolean = naive" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          Dl_engine.holds_boolean ~strategy:Dl_engine.Magic q i
          = Dl_engine.holds_boolean ~strategy:Dl_engine.Naive q i)
        Test_datalog.dg_idbs)

let prop_magic_holds_differential =
  (* bound-goal demand: membership of concrete tuples over the generator's
     constant pool agrees with naive fixpoint membership *)
  QCheck.Test.make ~name:"magic holds = naive membership" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      let consts = [ c "e0"; c "e1"; c "e2"; c "e3" ] in
      List.for_all
        (fun (goal, arity) ->
          let q = Datalog.make p goal in
          let tuples =
            if arity = 1 then List.map (fun x -> [| x |]) consts
            else
              List.concat_map
                (fun x -> List.map (fun y -> [| x; y |]) consts)
                consts
          in
          List.for_all
            (fun tup ->
              Dl_engine.holds ~strategy:Dl_engine.Magic q i tup
              = Dl_engine.holds ~strategy:Dl_engine.Naive q i tup)
            tuples)
        Test_datalog.dg_idbs)

let suite =
  [
    Alcotest.test_case "name mangling" `Quick test_names;
    Alcotest.test_case "tc adornments" `Quick test_tc_adornments;
    Alcotest.test_case "qstart adornments" `Quick test_qstart_adornments;
    Alcotest.test_case "diamond adornments" `Quick test_diamond_adornments;
    Alcotest.test_case "magic seeds" `Quick test_seed;
    Alcotest.test_case "demand pruning" `Quick test_demand_pruning;
    Alcotest.test_case "idb instance facts survive" `Quick
      test_idb_facts_survive;
    Alcotest.test_case "engine strategies agree on tc" `Quick
      test_engine_strategies;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_magic_eval_differential;
        prop_magic_boolean_differential;
        prop_magic_holds_differential;
      ]
