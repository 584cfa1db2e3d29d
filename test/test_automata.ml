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
      check_bool "decoded satisfies query" true (Dl_engine.holds_boolean conn i)

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

(* random codes of width 3 over E/2 and U/1: labels of up to two atoms,
   up to two children per node, edges random partial injections.  E-atoms
   join distinct positions: a self-loop would satisfy every E-only CQ and
   collapse the states. *)
let code_gen =
  QCheck.Gen.(
    let pos = int_bound 2 in
    let atom =
      oneof
        [
          map2 (fun a d -> ("E", [ a; (a + d) mod 3 ])) pos (int_range 1 2);
          map (fun a -> ("U", [ a ])) pos;
        ]
    in
    let label = list_size (int_bound 2) atom in
    let edge =
      let* images = shuffle_l [ 0; 1; 2 ] and* keep = list_repeat 3 bool in
      return
        (List.filteri (fun i _ -> List.nth keep i) (List.combine [ 0; 1; 2 ] images))
    in
    sized_size (int_bound 8)
    @@ fix (fun self n ->
           if n = 0 then map Code.leaf label
           else
             let* l = label and* k = int_range 1 2 in
             let* kids = list_repeat k (pair edge (self (n / 2))) in
             return (Code.node l kids)))

(* random Boolean CQs of one to four atoms over E/2 and U/1 *)
let cq_gen =
  QCheck.Gen.(
    let var = map (fun i -> Cq.Var (List.nth [ "x"; "y"; "z"; "w" ] i)) (int_bound 3) in
    let atom =
      oneof
        [ map2 (fun a b -> Cq.atom "E" [ a; b ]) var var; map (fun a -> Cq.atom "U" [ a ]) var ]
    in
    map (Cq.make ~head:[]) (list_size (int_range 1 4) atom))

let print_cq_code (q, c) = Fmt.str "%a on %a" Cq.pp q Code.pp c

let prop_bitmask_step_oracle =
  QCheck.Test.make ~name:"bitmask step = list step on random codes" ~count:150
    (QCheck.make ~print:print_cq_code (QCheck.Gen.pair cq_gen code_gen))
    (fun (q, code) ->
      List.for_all
        (fun prune ->
          let sorted l = List.sort compare l in
          sorted (Cq_dta.pairs_on_code ~prune q code)
          = sorted (Cq_dta_oracle.pairs_on_code ~prune q code))
        [ true; false ])

(* random path, star and small cyclic Boolean CQs of at most [max] E-atoms *)
let shaped_cq_gen max =
  QCheck.Gen.(
    let v i = Cq.Var (Printf.sprintf "x%d" i) in
    let e a b = Cq.atom "E" [ v a; v b ] in
    let* n = int_range 1 max and* shape = int_bound 2 in
    let* flips = list_repeat n bool in
    let atoms =
      List.mapi
        (fun i flip ->
          let a, b =
            match shape with
            | 0 -> (i, i + 1) (* path *)
            | 1 -> (0, i + 1) (* star *)
            | _ -> (i, (i + 1) mod n) (* cycle, a self-loop when n = 1 *)
          in
          if flip then e b a else e a b)
        flips
    in
    return (Cq.make ~head:[] atoms))

let tc_view =
  View.datalog "VT"
    (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")

let atomic_views = [ View.atomic "VE" "E" 2 ]

(* Theorem 5 through Md_decide against the same pipeline run with the list
   automaton: the same verdict, a witness exactly when the oracle finds
   one, and every witness a counterexample code *)
let prop_thm5_oracle =
  QCheck.Test.make ~name:"Theorem 5 verdicts = oracle" ~count:120
    (QCheck.make
       ~print:(fun (qs, tc) ->
         Fmt.str "%a over %s" Fmt.(list ~sep:(any " | ") Cq.pp) qs
           (if tc then "tc" else "atomic"))
       QCheck.Gen.(
         (* a CQ of up to four atoms, or a union of two of up to two: the
            product of two negated automata grows fast (a 4-cycle or 4-star
            union takes seconds) *)
         pair
           (oneof
              [
                map (fun q -> [ q ]) (shaped_cq_gen 4);
                list_repeat 2 (shaped_cq_gen 2);
              ])
           bool))
    (fun (qs, tc) ->
      let views = if tc then [ tc_view ] else atomic_views in
      let u = Ucq.make qs in
      let verdict =
        match qs with
        | [ q ] -> Md_decide.cq_query q views
        | _ -> Md_decide.ucq_query u views
      in
      let q'' = Md_decide.compose_with_views (Datalog.of_ucq ~goal:"G0" u) views in
      let nta, _ = Forward.approximations_nta q'' in
      let all_fail mk = Dta.conj_list (List.map mk qs) in
      let witness = Run.find nta (all_fail (Cq_dta.make ~negate:true)) in
      let oracle = Run.find nta (all_fail (Cq_dta_oracle.make ~negate:true)) in
      verdict = Option.is_none oracle
      && Option.is_some witness = Option.is_some oracle
      &&
      match witness with
      | None -> true
      | Some w -> not (Ucq.holds_boolean u (Code.decode w)))

let test_cq_dta_too_wide () =
  let unsupported name q =
    match Cq_dta.make q with
    | exception Unsupported.Error _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Unsupported")
  in
  let v i = Cq.Var (Printf.sprintf "x%d" i) in
  unsupported "63 atoms"
    (Cq.make ~head:[]
       (List.init 63 (fun i -> Cq.atom (Printf.sprintf "U%d" i) [ v 0 ])));
  unsupported "63 variables"
    (Cq.make ~head:[]
       (List.init 21 (fun i -> Cq.atom "R" [ v (3 * i); v ((3 * i) + 1); v ((3 * i) + 2) ])));
  (* 62 of each still fits *)
  ignore
    (Cq_dta.make
       (Cq.make ~head:[]
          (List.init 62 (fun i -> Cq.atom "E" [ v i; v ((i + 1) mod 62) ]))))

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
        (Dl_engine.holds_boolean conn i = Dl_engine.holds_boolean qa i))
    insts

let test_adom_rules () =
  let schema = Schema.of_list [ ("R", 2); ("U", 1) ] in
  let rules = Backward.adom_rules schema in
  check_int "three rules" 3 (List.length rules);
  let q = Datalog.query rules "Adom" in
  let i = Parse.instance "R(a,b). U(d)." in
  check_int "adom size" 3 (List.length (Dl_engine.eval q i))

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
    Alcotest.test_case "CQ DTA: 63 atoms or variables unsupported" `Quick
      test_cq_dta_too_wide;
    Alcotest.test_case "Datalog ⊆ CQ" `Quick test_datalog_in_cq_containment;
    Alcotest.test_case "Datalog ⊆ UCQ" `Quick test_datalog_in_ucq_containment;
    Alcotest.test_case "backward round trip" `Quick test_backward_roundtrip;
    Alcotest.test_case "adom rules" `Quick test_adom_rules;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_cq_dta_random; prop_bitmask_step_oracle; prop_thm5_oracle ]

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
