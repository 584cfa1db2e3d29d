(* Tests for the core monotonic-determinacy machinery: canonical tests,
   decision procedures, rewritings, separators, and the Theorem 7 diamond
   construction. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- canonical tests (Lemma 5) -------------------------------------- *)

let atomic_e = View.atomic "VE" "E" 2
let proj_view = View.cq "P1" (Parse.cq "v(x) <- E(x,y)")

let edge_q = Parse.query ~goal:"G" "G <- E(x,y)."
let loop_q = Parse.query ~goal:"G" "G <- E(x,x)."

let test_tests_shape () =
  let ts = List.of_seq (Md_tests.tests edge_q [ atomic_e ]) in
  check_int "one approximation, one test" 1 (List.length ts);
  let t = List.hd ts in
  check_int "image has one fact" 1 (Instance.size t.Md_tests.image);
  check_bool "test succeeds" true (Md_tests.succeeds edge_q t)

let test_bounded_determined () =
  match Md_tests.decide_bounded edge_q [ atomic_e ] with
  | Md_tests.No_failure_up_to n -> check_bool "some tests" true (n >= 1)
  | Md_tests.Not_determined _ -> Alcotest.fail "should be determined"

let test_bounded_counterexample () =
  (* loop query with projection view: the chase of P1(a) is E(a,fresh) —
     no loop, Q fails *)
  match Md_tests.decide_bounded loop_q [ proj_view ] with
  | Md_tests.Not_determined t ->
      check_bool "counterexample checked" false (Md_tests.succeeds loop_q t)
  | Md_tests.No_failure_up_to _ -> Alcotest.fail "expected counterexample"

let test_boolean_only () =
  let q = Parse.query ~goal:"G" "G(x) <- E(x,y)." in
  match Md_tests.decide_bounded q [ atomic_e ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Boolean-only"

let test_example1_no_failure () =
  let q =
    Parse.query ~goal:"GoalQ"
      "GoalQ <- U1(x), W1(x).
       W1(x) <- T(x,y,z), B(z,w), B(y,w), W1(w).
       W1(x) <- U2(x)."
  in
  let views =
    [
      View.cq "V0" (Parse.cq "v(x,w) <- T(x,y,z), B(z,w), B(y,w)");
      View.cq "V1" (Parse.cq "v(x) <- U1(x)");
      View.cq "V2" (Parse.cq "v(x) <- U2(x)");
    ]
  in
  match Md_tests.decide_bounded ~max_depth:4 q views with
  | Md_tests.No_failure_up_to n -> check_bool "≥3 tests" true (n >= 3)
  | Md_tests.Not_determined _ -> Alcotest.fail "Example 1 is determined"

(* --- Theorem 5 exact decisions -------------------------------------- *)

let test_thm5_positive () =
  check_bool "edge/atomic" true (Md_decide.cq_query (Parse.cq "q() <- E(x,y)") [ atomic_e ]);
  check_bool "edge/projection" true
    (Md_decide.cq_query (Parse.cq "q() <- E(x,y)") [ proj_view ])

let test_thm5_negative () =
  check_bool "loop/projection" false
    (Md_decide.cq_query (Parse.cq "q() <- E(x,x)") [ proj_view ]);
  check_bool "2path/projection" false
    (Md_decide.cq_query (Parse.cq "q() <- E(x,y), E(y,z)") [ proj_view ])

let test_thm5_datalog_views () =
  (* view = transitive closure; query = ∃ edge; TC(I) nonempty iff E
     nonempty: determined *)
  let tc_view =
    View.datalog "VT"
      (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")
  in
  check_bool "∃edge over TC view" true
    (Md_decide.cq_query (Parse.cq "q() <- E(x,y)") [ tc_view ]);
  (* 2-path existence IS determined: two composable TC facts always come
     from a path of length ≥ 2 *)
  check_bool "2path over TC view" true
    (Md_decide.cq_query (Parse.cq "q() <- E(x,y), E(y,z)") [ tc_view ]);
  (* a self-loop is NOT determined by TC: the loop and the 2-cycle have
     comparable TC images but disagree on the query *)
  check_bool "loop over TC view" false
    (Md_decide.cq_query (Parse.cq "q() <- E(x,x)") [ tc_view ])

let test_thm5_ucq () =
  let u = Parse.ucq "q() <- U(x). q() <- W(x)." in
  let vu = View.atomic "VU" "U" 1 and vw = View.atomic "VW" "W" 1 in
  check_bool "ucq atomic" true (Md_decide.ucq_query u [ vu; vw ]);
  check_bool "ucq missing view" false (Md_decide.ucq_query u [ vu ])

let test_decide_dispatch () =
  (match Md_decide.decide edge_q [ atomic_e ] with
  | Md_decide.Determined -> ()
  | _ -> Alcotest.fail "expected exact Determined");
  (match Md_decide.decide loop_q [ proj_view ] with
  | Md_decide.Not_determined_cert _ -> ()
  | _ -> Alcotest.fail "expected Not_determined");
  let rec_q = Parse.query ~goal:"G" "P(x) <- U(x). P(x) <- E(x,y), P(y). G <- P(x)." in
  match Md_decide.decide rec_q [ View.atomic "VE" "E" 2; View.atomic "VU" "U" 1 ] with
  | Md_decide.Bounded_no_failure _ -> ()
  | _ -> Alcotest.fail "expected bounded fallback"

(* --- rewritings ------------------------------------------------------ *)

let test_prop8 () =
  let q = Parse.cq "q() <- E(x,y), E(y,z)" in
  let rw = Md_rewrite.prop8_cq q [ proj_view; atomic_e ] in
  (* evaluating the rewriting on view images agrees with Q, since Q is
     monotonically determined over {P1, VE} (VE is a full copy) *)
  let schema = Schema.of_list [ ("E", 2) ] in
  let insts = Md_rewrite.random_instances ~n:20 ~size:8 ~seed:1 schema in
  List.iter
    (fun i ->
      let lhs = Cq.holds_boolean q i in
      let rhs = Cq.holds_boolean rw (View.image [ proj_view; atomic_e ] i) in
      check_bool "prop8 rewriting agrees" true (lhs = rhs))
    insts

let test_prop8_ucq () =
  let u = Parse.ucq "q() <- U(x). q() <- W(x)." in
  let vu = View.atomic "VU" "U" 1 and vw = View.atomic "VW" "W" 1 in
  let rw = Md_rewrite.prop8_ucq u [ vu; vw ] in
  check_int "two disjuncts" 2 (List.length rw.Ucq.disjuncts)

let test_forward_backward_atomic () =
  let conn =
    Parse.query ~goal:"G" "P(x) <- U(x). P(x) <- R(x,y), P(y). G <- P(x), S(x)."
  in
  let views =
    [ View.atomic "VR" "R" 2; View.atomic "VU" "U" 1; View.atomic "VS" "S" 1 ]
  in
  let rw = Md_rewrite.forward_backward_atomic conn views in
  let schema = Schema.of_list [ ("R", 2); ("U", 1); ("S", 1) ] in
  let insts = Md_rewrite.random_instances ~n:20 ~size:10 ~seed:9 schema in
  check_bool "verified" true (Md_rewrite.verify_boolean conn rw views insts)

let test_forward_backward_missing_view () =
  let conn = Parse.query ~goal:"G" "G <- R(x,y), U(y)." in
  match Md_rewrite.forward_backward_atomic conn [ View.atomic "VR" "R" 2 ] with
  | exception Unsupported.Error _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* --- separators ------------------------------------------------------ *)

let test_separator_certain () =
  let q = Parse.query ~goal:"G" "G <- E(x,y), E(y,z)." in
  let sep j = Md_separator.certain_answers_cq_views q [ View.cq "P2" (Parse.cq "v(x,y) <- E(x,z), E(z,y)") ] j in
  let j = Parse.instance "P2(a,b)." in
  check_bool "certainly a 2-path" true (sep j);
  check_bool "empty image" false (sep Instance.empty)

let test_separator_brute_force () =
  let q = Parse.query ~goal:"G" "G <- E(x,y)." in
  let views = [ proj_view ] in
  let candidates =
    [ Parse.instance "E(a,b)."; Parse.instance "E(a,b). E(b,a)."; Instance.empty ]
  in
  let j = View.image views (Parse.instance "E(a,b).") in
  (match Md_separator.brute_force_certain q views ~candidates j with
  | Some true -> ()
  | _ -> Alcotest.fail "expected certain true");
  match Md_separator.brute_force_certain q views ~candidates (Parse.instance "P9(z).") with
  | None -> ()
  | _ -> Alcotest.fail "expected no preimage"

(* --- Theorem 7 diamonds ---------------------------------------------- *)

let test_diamonds_query_holds () =
  check_bool "Q(I_0)" true (Dl_engine.holds_boolean Diamonds.query (Diamonds.chain 0));
  check_bool "Q(I_3)" true (Dl_engine.holds_boolean Diamonds.query (Diamonds.chain 3))

let test_diamonds_views_shape () =
  let jk = View.image Diamonds.views (Diamonds.chain 2) in
  check_int "one S" 1 (List.length (Instance.tuples jk "S"));
  check_int "one T" 1 (List.length (Instance.tuples jk "T"));
  check_int "two R" 2 (List.length (Instance.tuples jk "R"))

let test_diamonds_counterexample () =
  let i' = Diamonds.unravelled_counterexample ~k:2 ~depth:2 in
  check_bool "Q false on I'" false (Dl_engine.holds_boolean Diamonds.query i');
  let v_i = View.image Diamonds.views (Diamonds.chain 2) in
  let v_i' = View.image Diamonds.views i' in
  check_bool "(1,2) duplicator wins" true (Pebble.one_k_consistent ~k:2 v_i v_i')

let test_diamonds_datalog_rewriting () =
  let rw = Md_rewrite.inverse_rules Diamonds.query Diamonds.views in
  let insts =
    Diamonds.chain 0 :: Diamonds.chain 2
    :: Md_rewrite.random_instances ~n:15 ~size:10 ~seed:13 Diamonds.schema
  in
  check_bool "verified" true
    (Md_rewrite.verify_boolean Diamonds.query rw Diamonds.views insts)

let suite =
  [
    Alcotest.test_case "tests shape" `Quick test_tests_shape;
    Alcotest.test_case "bounded: determined" `Quick test_bounded_determined;
    Alcotest.test_case "bounded: counterexample" `Quick test_bounded_counterexample;
    Alcotest.test_case "boolean only" `Quick test_boolean_only;
    Alcotest.test_case "example 1 no failure" `Quick test_example1_no_failure;
    Alcotest.test_case "thm5 positive" `Quick test_thm5_positive;
    Alcotest.test_case "thm5 negative" `Quick test_thm5_negative;
    Alcotest.test_case "thm5 datalog views" `Quick test_thm5_datalog_views;
    Alcotest.test_case "thm5 ucq" `Quick test_thm5_ucq;
    Alcotest.test_case "decide dispatch" `Quick test_decide_dispatch;
    Alcotest.test_case "prop8 cq" `Quick test_prop8;
    Alcotest.test_case "prop8 ucq" `Quick test_prop8_ucq;
    Alcotest.test_case "fwd-bwd atomic" `Quick test_forward_backward_atomic;
    Alcotest.test_case "fwd-bwd missing view" `Quick test_forward_backward_missing_view;
    Alcotest.test_case "separator certain" `Quick test_separator_certain;
    Alcotest.test_case "separator brute force" `Quick test_separator_brute_force;
    Alcotest.test_case "diamonds: query holds" `Quick test_diamonds_query_holds;
    Alcotest.test_case "diamonds: view shape" `Quick test_diamonds_views_shape;
    Alcotest.test_case "diamonds: counterexample" `Quick test_diamonds_counterexample;
    Alcotest.test_case "diamonds: datalog rewriting" `Quick test_diamonds_datalog_rewriting;
  ]

(* --- chase separators (§7 observation) ------------------------------- *)

let test_chase_separator () =
  let q = Parse.query ~goal:"G" "G <- E(x,y), E(y,z)." in
  let views = [ View.cq "P2" (Parse.cq "v(x,y) <- E(x,z), E(z,y)") ] in
  let j = Parse.instance "P2(a,b)." in
  (* with a single CQ view the chase is unique, so Any = All = certain *)
  check_bool "any" true (Md_separator.chase_separator ~mode:Md_separator.Any q views j);
  check_bool "all" true (Md_separator.chase_separator ~mode:Md_separator.All q views j);
  check_bool "agrees with inverse rules" true
    (Md_separator.certain_answers_cq_views q views j
    = Md_separator.chase_separator q views j)

let test_chase_separator_ucq () =
  (* UCQ view: U-or-W; a V-fact chases two ways *)
  let q = Parse.query ~goal:"G" "G <- U(x)." in
  let views = [ View.ucq "VUW" (Parse.ucq "v(x) <- U(x). v(x) <- W(x).") ] in
  let j = Parse.instance "VUW(a)." in
  check_bool "any: some chase has U" true
    (Md_separator.chase_separator ~mode:Md_separator.Any q views j);
  check_bool "all: not every chase has U" false
    (Md_separator.chase_separator ~mode:Md_separator.All q views j)

let test_chase_separator_identity () =
  (* under monotonic determinacy Any and All coincide on view images *)
  let q = Parse.query ~goal:"G" "G <- E(x,y)." in
  let views = [ View.ucq "VE2" (Parse.ucq "v(x,y) <- E(x,y). v(x,y) <- E(y,x).") ] in
  let i = Parse.instance "E(a,b). E(c,c)." in
  let j = View.image views i in
  let any = Md_separator.chase_separator ~mode:Md_separator.Any q views j in
  let all = Md_separator.chase_separator ~mode:Md_separator.All q views j in
  check_bool "coincide" true (any = all);
  check_bool "equal query" true (any = Dl_engine.holds_boolean q i)

let suite =
  suite
  @ [
      Alcotest.test_case "chase separator" `Quick test_chase_separator;
      Alcotest.test_case "chase separator ucq" `Quick test_chase_separator_ucq;
      Alcotest.test_case "chase separator identity" `Quick test_chase_separator_identity;
    ]
