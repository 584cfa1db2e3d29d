(* Tests for the tree-automata pipeline: NTA core operations, the forward
   map (Prop. 3), the CQ-satisfaction DTA, the lazy product (emptiness),
   and the backward map. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- NTA core ------------------------------------------------------ *)

(* an automaton accepting exactly the single-leaf code with label U[0] *)
let single_u =
  Nta.make ~n_states:1 ~finals:[ 0 ]
    [ { Nta.children = []; sym = { Nta.label = [ ("U", [ 0 ]) ]; edges = [] }; target = 0 } ]

(* chains of E-nodes ending in a U leaf: state 0 = done *)
let chain_nta =
  let sym_leaf = { Nta.label = [ ("U", [ 0 ]) ]; edges = [] } in
  let sym_step = { Nta.label = [ ("E", [ 0; 1 ]) ]; edges = [ [ (1, 0) ] ] } in
  Nta.make ~n_states:1 ~finals:[ 0 ]
    [
      { Nta.children = []; sym = sym_leaf; target = 0 };
      { Nta.children = [ 0 ]; sym = sym_step; target = 0 };
    ]

let leaf_u = Code.leaf [ ("U", [ 0 ]) ]
let chain1 = Code.node [ ("E", [ 0; 1 ]) ] [ ([ (1, 0) ], leaf_u) ]
let chain2 = Code.node [ ("E", [ 0; 1 ]) ] [ ([ (1, 0) ], chain1) ]

let test_accepts () =
  check_bool "leaf" true (Nta.accepts single_u leaf_u);
  check_bool "chain rejected by single" false (Nta.accepts single_u chain1);
  check_bool "chain1" true (Nta.accepts chain_nta chain1);
  check_bool "chain2" true (Nta.accepts chain_nta chain2);
  check_bool "wrong leaf" false
    (Nta.accepts chain_nta (Code.leaf [ ("W", [ 0 ]) ]))

let test_emptiness_witness () =
  check_bool "nonempty" false (Nta.is_empty chain_nta);
  (match Nta.witness chain_nta with
  | None -> Alcotest.fail "expected witness"
  | Some w -> check_bool "witness accepted" true (Nta.accepts chain_nta w));
  let dead =
    Nta.make ~n_states:2 ~finals:[ 1 ]
      [ { Nta.children = []; sym = { Nta.label = []; edges = [] }; target = 0 } ]
  in
  check_bool "empty" true (Nta.is_empty dead)

let test_product_union () =
  let p = Nta.product chain_nta single_u in
  check_bool "product: leaf only" true (Nta.accepts p leaf_u);
  check_bool "product rejects chain" false (Nta.accepts p chain1);
  let u = Nta.union single_u chain_nta in
  check_bool "union leaf" true (Nta.accepts u leaf_u);
  check_bool "union chain" true (Nta.accepts u chain1)

let test_relabel () =
  let renamed =
    Nta.relabel
      (List.map (fun (r, ps) -> ((if r = "U" then "U'" else r), ps)))
      chain_nta
  in
  check_bool "renamed leaf" true
    (Nta.accepts renamed (Code.leaf [ ("U'", [ 0 ]) ]));
  check_bool "old leaf rejected" false (Nta.accepts renamed leaf_u)

let test_trim () =
  let messy =
    Nta.make ~n_states:3 ~finals:[ 0 ]
      [
        { Nta.children = []; sym = { Nta.label = []; edges = [] }; target = 0 };
        (* unreachable transition: state 2 never derivable *)
        { Nta.children = [ 2 ]; sym = { Nta.label = []; edges = [ [] ] }; target = 1 };
      ]
  in
  check_int "trimmed" 1 (Nta.size (Nta.trim messy))

(* --- forward map (Prop. 3) ----------------------------------------- *)

let conn = Parse.query ~goal:"G" "P(x) <- U(x). P(x) <- R(x,y), P(y). G <- P(x), S(x)."

let test_forward_basics () =
  let nta, k = Forward.approximations_nta conn in
  check_bool "k ≥ 2" true (k >= 2);
  check_int "three transitions" 3 (Nta.size nta);
  check_bool "nonempty" false (Nta.is_empty nta)

let test_forward_witness_is_approximation () =
  let nta, _ = Forward.approximations_nta conn in
  match Nta.witness nta with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
      (* decoding a witness satisfies the query *)
      let i = Code.decode w in
      check_bool "decoded satisfies query" true (Dl_eval.holds_boolean conn i)

let test_forward_repeated_idb_args () =
  (* repeated variables in intensional atoms are specialized away *)
  let q = Parse.query ~goal:"G" "G <- P(x,x). P(x,y) <- E(x,y)." in
  let nta, _ = Forward.approximations_nta q in
  (match Nta.witness nta with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
      check_bool "decoded witness is a loop" true
        (Cq.holds_boolean (Parse.cq "q() <- E(x,x)") (Code.decode w)))

let test_forward_unsupported () =
  match Forward.approximations_nta
          (Parse.query ~goal:"G" "G <- E(x,'a').")
  with
  | exception Unsupported.Error _ -> ()
  | _ -> Alcotest.fail "constants should be unsupported"

(* --- CQ-satisfaction DTA ------------------------------------------- *)

let test_cq_dta_on_codes () =
  (* build codes from instances and compare with direct evaluation *)
  let check_code q inst =
    let td = Decomp.binarize (Decomp.heuristic inst) in
    let code = Code.of_decomposition td inst in
    Cq_dta.holds_on_code q code = Cq.holds_boolean q inst
  in
  let q_path = Parse.cq "q() <- E(x,y), E(y,z)" in
  let q_loop = Parse.cq "q() <- E(x,x)" in
  let insts =
    [
      Parse.instance "E(a,b). E(b,c).";
      Parse.instance "E(a,b). E(c,d).";
      Parse.instance "E(a,a).";
      Parse.instance "E(a,b). E(b,a).";
      Parse.instance "E(a,b). E(b,c). E(c,d). U(a).";
    ]
  in
  List.iter
    (fun i ->
      check_bool "path agrees" true (check_code q_path i);
      check_bool "loop agrees" true (check_code q_loop i))
    insts

let prop_cq_dta_random =
  QCheck.Test.make ~name:"CQ DTA agrees with evaluation on random codes"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         let cg = map (fun i -> Const.named ("e" ^ string_of_int i)) (int_bound 4) in
         let fg =
           let* r = int_bound 1 in
           if r = 0 then
             let* a = cg and* b = cg in
             return (Fact.make "E" [ a; b ])
           else
             let* a = cg in
             return (Fact.make "U" [ a ])
         in
         map Instance.of_list (list_size (int_range 1 8) fg)))
    (fun i ->
      let td = Decomp.binarize (Decomp.heuristic i) in
      let code = Code.of_decomposition td i in
      let q = Parse.cq "q() <- E(x,y), U(y)" in
      Cq_dta.holds_on_code q code = Cq.holds_boolean q i)

(* --- containment via Run ------------------------------------------- *)

let test_datalog_in_cq_containment () =
  (* conn ⊆ ∃x S(x): every expansion has an S atom *)
  check_bool "conn ⊆ ∃S" true
    (Md_decide.datalog_contained_in_cq conn (Parse.cq "q() <- S(x)"));
  check_bool "conn ⊆ ∃U" true
    (Md_decide.datalog_contained_in_cq conn (Parse.cq "q() <- U(x)"));
  check_bool "conn ⊄ ∃R" false
    (Md_decide.datalog_contained_in_cq conn (Parse.cq "q() <- R(x,y)"));
  (* the S and U elements may differ, but S is on the chain start *)
  check_bool "conn ⊆ ∃x (S(x))∧∃y U(y) as one CQ" true
    (Md_decide.datalog_contained_in_cq conn (Parse.cq "q() <- S(x), U(y)"))

let test_datalog_in_ucq_containment () =
  let tc = Parse.query ~goal:"T0" "T0 <- E(x,y). T0 <- E(x,z), T0." in
  ignore tc;
  let p = Parse.query ~goal:"G" "G <- U(x). G <- W(x)." in
  let u = Parse.ucq "q() <- U(x). q() <- W(x)." in
  check_bool "union contained" true (Md_decide.datalog_contained_in_ucq p u);
  let u1 = Parse.ucq "q() <- U(x)." in
  check_bool "not in single disjunct" false
    (Md_decide.datalog_contained_in_ucq p u1)

(* --- backward map --------------------------------------------------- *)

let test_backward_roundtrip () =
  (* backward(forward(Q)) over the identity "views" is equivalent to Q *)
  let nta, k = Forward.approximations_nta conn in
  let schema = Schema.of_list [ ("R", 2); ("U", 1); ("S", 1) ] in
  let qa = Backward.backward ~schema ~k nta in
  let insts =
    Md_rewrite.random_instances ~n:25 ~size:10 ~seed:5 schema
    @ [ Parse.instance "S(a). R(a,b). R(b,d). U(d)." ]
  in
  List.iter
    (fun i ->
      check_bool "agrees" true
        (Dl_eval.holds_boolean conn i = Dl_eval.holds_boolean qa i))
    insts

let test_adom_rules () =
  let schema = Schema.of_list [ ("R", 2); ("U", 1) ] in
  let rules = Backward.adom_rules schema in
  check_int "three rules" 3 (List.length rules);
  let q = Datalog.query rules "Adom" in
  let i = Parse.instance "R(a,b). U(d)." in
  check_int "adom size" 3 (List.length (Dl_eval.eval q i))

let suite =
  [
    Alcotest.test_case "accepts" `Quick test_accepts;
    Alcotest.test_case "emptiness/witness" `Quick test_emptiness_witness;
    Alcotest.test_case "product/union" `Quick test_product_union;
    Alcotest.test_case "relabel (Prop 5)" `Quick test_relabel;
    Alcotest.test_case "trim" `Quick test_trim;
    Alcotest.test_case "forward basics" `Quick test_forward_basics;
    Alcotest.test_case "forward witness" `Quick test_forward_witness_is_approximation;
    Alcotest.test_case "forward repeated IDB args" `Quick test_forward_repeated_idb_args;
    Alcotest.test_case "forward unsupported" `Quick test_forward_unsupported;
    Alcotest.test_case "CQ DTA on codes" `Quick test_cq_dta_on_codes;
    Alcotest.test_case "Datalog ⊆ CQ" `Quick test_datalog_in_cq_containment;
    Alcotest.test_case "Datalog ⊆ UCQ" `Quick test_datalog_in_ucq_containment;
    Alcotest.test_case "backward round trip" `Quick test_backward_roundtrip;
    Alcotest.test_case "adom rules" `Quick test_adom_rules;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_cq_dta_random ]

(* ablation flags preserve verdicts *)
let test_ablation_flags_agree () =
  let tc_view =
    View.datalog "VT"
      (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")
  in
  let q = Parse.cq "q() <- E(x,y), E(y,z)" in
  let q'' = Md_decide.compose_with_views (Datalog.of_cq ~goal:"G0" q) [ tc_view ] in
  let verdict ~binarize ~prune =
    let nta, _ = Forward.approximations_nta ~binarize q'' in
    Run.check_empty nta (Cq_dta.make ~negate:true ~prune q)
  in
  let full = verdict ~binarize:true ~prune:true in
  check_bool "no-prune agrees" true (verdict ~binarize:true ~prune:false = full);
  check_bool "no-binarize agrees" true (verdict ~binarize:false ~prune:true = full)

let test_cq_dta_prune_agree () =
  let i = Parse.instance "E(a,b). E(b,c). U(b)." in
  let td = Decomp.binarize (Decomp.heuristic i) in
  let code = Code.of_decomposition td i in
  let q = Parse.cq "q() <- E(x,y), U(y)" in
  check_bool "prune = no-prune" true
    (Cq_dta.holds_on_code ~prune:true q code
    = Cq_dta.holds_on_code ~prune:false q code)

let suite =
  suite
  @ [
      Alcotest.test_case "ablation flags agree" `Quick test_ablation_flags_agree;
      Alcotest.test_case "prune agree on codes" `Quick test_cq_dta_prune_agree;
    ]
