(* Tests for the Datalog engine: evaluation, fragments, normalization,
   approximations. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let c = Const.named

(* the two queries agree on every given instance *)
let equivalent_on q1 q2 insts =
  let norm ts = List.sort compare (List.map Array.to_list ts) in
  List.for_all
    (fun i -> norm (Dl_engine.eval q1 i) = norm (Dl_engine.eval q2 i))
    insts

(* transitive closure *)
let tc =
  Parse.query ~goal:"T"
    "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

(* the paper's §2 example: x reaches an element of U along R-edges *)
let conn =
  Parse.query ~goal:"Goal"
    "P(x) <- U(x). P(x) <- R(x,y), P(y). Goal(x) <- P(x)."

let chain n =
  (* E(a0,a1), ..., E(a_{n-1},a_n) *)
  Instance.of_list
    (List.init n (fun i ->
         Fact.make "E"
           [ c (Printf.sprintf "a%d" i); c (Printf.sprintf "a%d" (i + 1)) ]))

let test_tc_chain () =
  let i = chain 4 in
  let out = Dl_engine.eval tc i in
  (* all pairs i<j: 5*4/2 = 10 *)
  check_int "pairs" 10 (List.length out);
  check_bool "a0->a4" true (Dl_engine.holds tc i [| c "a0"; c "a4" |]);
  check_bool "no back edge" false (Dl_engine.holds tc i [| c "a4"; c "a0" |])

let test_tc_cycle () =
  let i =
    Parse.instance "E(a,b). E(b,c). E(c,a)."
  in
  check_int "all 9 pairs" 9 (List.length (Dl_engine.eval tc i))

let test_conn () =
  let i = Parse.instance "R(a,b). R(b,d). U(d). R(z,z)." in
  check_bool "a connects" true (Dl_engine.holds conn i [| c "a" |]);
  check_bool "d connects" true (Dl_engine.holds conn i [| c "d" |]);
  check_bool "z does not" false (Dl_engine.holds conn i [| c "z" |]);
  check_int "three answers" 3 (List.length (Dl_engine.eval conn i))

let test_fixpoint_idbs () =
  let i = chain 2 in
  let fp = Dl_engine.fixpoint tc.Datalog.program i in
  check_bool "contains edb" true (Instance.subset i fp);
  check_int "T facts" 3 (List.length (Instance.tuples fp "T"))

let test_nullary_goal () =
  let q =
    Parse.query ~goal:"Goal" "Goal <- E(x,y), E(y,x)."
  in
  check_bool "no 2-cycle" false (Dl_engine.holds_boolean q (chain 3));
  check_bool "2-cycle" true
    (Dl_engine.holds_boolean q (Parse.instance "E(a,b). E(b,a)."))

let test_example1 () =
  (* Example 1 of the paper: ternary T, binary B, unary U1, U2. *)
  let q =
    Parse.query ~goal:"GoalQ"
      "GoalQ <- U1(x), W1(x).
       W1(x) <- T(x,y,z), B(z,w), B(y,w), W1(w).
       W1(x) <- U2(x)."
  in
  (* witnessing instance: one diamond step from x0 to w0, U2(w0), U1(x0) *)
  let yes =
    Parse.instance
      "U1(x0). T(x0,y0,z0). B(z0,w0). B(y0,w0). U2(w0)."
  in
  check_bool "Q holds" true (Dl_engine.holds_boolean q yes);
  (* remove U1: fails *)
  let no = Parse.instance "T(x0,y0,z0). B(z0,w0). B(y0,w0). U2(w0)." in
  check_bool "Q fails without U1" false (Dl_engine.holds_boolean q no);
  (* two-step chain *)
  let yes2 =
    Parse.instance
      "U1(x0). T(x0,y0,z0). B(z0,w0). B(y0,w0).
       T(w0,y1,z1). B(z1,w1). B(y1,w1). U2(w1)."
  in
  check_bool "Q holds (2 steps)" true (Dl_engine.holds_boolean q yes2)

let test_monotone_under_delta () =
  (* semi-naive gives same result as evaluating on the union directly *)
  let i1 = chain 3 in
  let i2 = Parse.instance "E(a3,a0)." in
  let all = Instance.union i1 i2 in
  let fp = Dl_engine.fixpoint tc.Datalog.program all in
  check_int "cycle closure" 16 (List.length (Instance.tuples fp "T"))

(* --- static analysis ---------------------------------------------- *)

let test_idb_edb () =
  check_bool "idbs" true (Datalog.idbs conn.Datalog.program = [ "Goal"; "P" ]);
  check_bool "edbs" true (Datalog.edbs conn.Datalog.program = [ "R"; "U" ]);
  check_int "goal arity" 1 (Datalog.goal_arity conn);
  check_int "max body vars" 2 (Datalog.max_body_vars conn.Datalog.program)

let test_depends_recursive () =
  check_bool "P self-dep" true (Datalog.depends_on conn.Datalog.program "P" "P");
  check_bool "Goal deps P" true (Datalog.depends_on conn.Datalog.program "Goal" "P");
  check_bool "P not on Goal" false (Datalog.depends_on conn.Datalog.program "P" "Goal");
  let r = List.nth conn.Datalog.program 1 in
  check_bool "recursive rule" true (Datalog.is_recursive_rule conn.Datalog.program r);
  let r0 = List.nth conn.Datalog.program 0 in
  check_bool "base rule" false (Datalog.is_recursive_rule conn.Datalog.program r0)

let test_fragments () =
  check_bool "conn is monadic" true (Dl_fragment.is_monadic conn.Datalog.program);
  check_bool "tc not monadic" false (Dl_fragment.is_monadic tc.Datalog.program);
  check_bool "tc frontier-guarded" false
    (Dl_fragment.is_syntactically_frontier_guarded tc.Datalog.program);
  (* tc is not FG: head vars x,y of the recursive rule do not co-occur in
     an extensional atom *)
  check_bool "conn FGDL by convention" true
    (Dl_fragment.is_frontier_guarded conn.Datalog.program);
  let fg =
    Parse.query ~goal:"G" "G(x,y) <- E(x,y). G(x,y) <- E(x,y), G(y,z)."
  in
  check_bool "fg guarded" true
    (Dl_fragment.is_syntactically_frontier_guarded fg.Datalog.program);
  check_bool "linear" true (Dl_fragment.is_linear conn.Datalog.program);
  check_bool "nonrec" false (Dl_fragment.is_nonrecursive conn.Datalog.program)

let test_classify () =
  let cq_q = Parse.query ~goal:"Q" "Q(x) <- E(x,y)." in
  check_bool "cq" true (Dl_fragment.classify cq_q = Dl_fragment.CQ);
  let ucq_q = Parse.query ~goal:"Q" "Q(x) <- E(x,y). Q(x) <- U(x)." in
  check_bool "ucq" true (Dl_fragment.classify ucq_q = Dl_fragment.UCQ);
  check_bool "mdl" true (Dl_fragment.classify conn = Dl_fragment.MDL);
  check_bool "datalog" true (Dl_fragment.classify tc = Dl_fragment.DATALOG)

let test_to_ucq () =
  let q =
    Parse.query ~goal:"Q"
      "Q(x) <- A(x,y), H(y). H(y) <- U(y). H(y) <- V(y)."
  in
  match Dl_fragment.to_ucq q with
  | None -> Alcotest.fail "expected UCQ"
  | Some u ->
      check_int "two disjuncts" 2 (List.length u.Ucq.disjuncts);
      let i = Parse.instance "A(a,b). V(b)." in
      check_bool "agree" true
        (Ucq.holds u i [| c "a" |] = Dl_engine.holds q i [| c "a" |])

(* --- normalization ------------------------------------------------ *)

let test_normalize () =
  (* P(x) ← E(x,y), P(x) is recursive with head var in an IDB atom *)
  let q =
    Parse.query ~goal:"P" "P(x) <- U(x). P(x) <- E(x,y), P(x)."
  in
  check_bool "not normalized" false (Dl_normalize.is_normalized q.Datalog.program);
  let nq = Dl_normalize.normalize q in
  check_bool "normalized" true (Dl_normalize.is_normalized nq.Datalog.program);
  (* semantics preserved on samples *)
  let insts =
    [
      Parse.instance "U(a). E(a,b).";
      Parse.instance "E(a,b). E(b,a).";
      Parse.instance "U(a). U(b). E(b,c).";
      chain 3;
    ]
  in
  check_bool "equivalent" true (equivalent_on q nq insts)

let test_normalize_already () =
  check_bool "conn normalized" true (Dl_normalize.is_normalized conn.Datalog.program);
  let nq = Dl_normalize.normalize conn in
  check_bool "unchanged size" true
    (List.length nq.Datalog.program = List.length conn.Datalog.program)

let test_rule_subsumes () =
  let r1 = Parse.rule "P(x) <- E(x,y)" in
  let r2 = Parse.rule "P(x) <- E(x,y), U(y)" in
  check_bool "r1 subsumes r2" true (Dl_normalize.rule_subsumes r1 r2);
  check_bool "r2 not subsumes r1" false (Dl_normalize.rule_subsumes r2 r1)

(* --- approximations ------------------------------------------------ *)

let test_approx_conn () =
  let approxs = Dl_approx.approximations ~max_depth:4 conn in
  (* Goal consumes one level; P at depth ≤ 3 gives U(x) plus 1 or 2 R-steps *)
  check_int "three approximations" 3 (List.length approxs);
  List.iter
    (fun q ->
      check_bool "approx sound: canondb satisfies conn" true
        (Dl_engine.contained_cq_in q conn))
    approxs

let test_approx_tc () =
  let approxs = Dl_approx.approximations ~max_depth:3 tc in
  (* paths of length 1,2,3 *)
  check_int "three approximations" 3 (List.length approxs);
  List.iter
    (fun q -> check_bool "sound" true (Dl_engine.contained_cq_in q tc))
    approxs

let test_approx_prop1 () =
  (* Proposition 1: if I ⊨ Q(c) then some approximation witnesses it *)
  let i = chain 3 in
  let out = Dl_engine.eval tc i in
  let approxs = Dl_approx.approximations ~max_depth:4 tc in
  List.iter
    (fun t ->
      check_bool "witnessed" true
        (List.exists (fun q -> Cq.holds q i t) approxs))
    out

let test_complete_unfolding () =
  let q =
    Parse.query ~goal:"Q" "Q(x) <- A(x,y), H(y). H(y) <- U(y). H(y) <- V(y)."
  in
  (match Dl_approx.complete_unfolding q with
  | None -> Alcotest.fail "nonrecursive"
  | Some l -> check_int "two" 2 (List.length l));
  check_bool "recursive gives None" true (Dl_approx.complete_unfolding tc = None)

(* A head repeating a variable unfolds by unification: plugging V(x,x)
   into V(z,u) equates u with z; clashing constants drop the choice; a
   head variable bound to a constant is unsupported. *)
let test_approx_repeated_head () =
  let v = "V(x,x) <- E(x,y). " in
  let approx prog goal = Dl_approx.approximations (Parse.query ~goal prog) in
  let key q = Dl_approx.canonical_string q in
  (match approx (v ^ "W(z) <- V(z,u), F(u).") "W" with
  | [ q ] ->
      Alcotest.(check string) "u unified with z"
        (key (Parse.cq "w(z) <- E(z,y), F(z)"))
        (key q)
  | l -> Alcotest.failf "expected one approximation, got %d" (List.length l));
  check_int "goal head repeats its variable" 1
    (List.length (approx v "V"));
  check_bool "V's head is (V#0,V#0)" true
    ((List.hd (approx v "V")).Cq.head = [ "V#0"; "V#0" ]);
  check_int "clashing constants" 0
    (List.length (approx (v ^ "W() <- V('a','b').") "W"));
  match approx (v ^ "W(z) <- V(z,'a').") "W" with
  | exception Unsupported.Error _ -> ()
  | _ -> Alcotest.fail "a head variable bound to a constant is unsupported"

(* --- properties ----------------------------------------------------- *)

let instance_gen =
  QCheck.Gen.(
    let cg = map (fun i -> Const.named ("e" ^ string_of_int i)) (int_bound 4) in
    let fg =
      let* r = int_bound 2 in
      match r with
      | 0 ->
          let* a = cg and* b = cg in
          return (Fact.make "E" [ a; b ])
      | 1 ->
          let* a = cg and* b = cg in
          return (Fact.make "R" [ a; b ])
      | _ ->
          let* a = cg in
          return (Fact.make "U" [ a ])
    in
    map Instance.of_list (list_size (int_bound 10) fg))

let instance_arb = QCheck.make ~print:(Fmt.str "%a" Instance.pp) instance_gen

let prop_datalog_monotone =
  QCheck.Test.make ~name:"Datalog evaluation is monotone" ~count:60
    (QCheck.pair instance_arb instance_arb) (fun (a, b) ->
      let big = Instance.union a b in
      List.for_all (fun t -> Dl_engine.holds conn big t) (Dl_engine.eval conn a))

let prop_approx_sound_complete =
  QCheck.Test.make ~name:"approximations bound the query from below" ~count:40
    instance_arb (fun i ->
      let approxs = Dl_approx.approximations ~max_depth:3 conn in
      List.for_all
        (fun q ->
          List.for_all (fun t -> Dl_engine.holds conn i t) (Cq.eval q i))
        approxs)

let prop_normalize_semantics =
  QCheck.Test.make ~name:"normalization preserves semantics" ~count:40
    instance_arb (fun i ->
      let q = Parse.query ~goal:"P" "P(x) <- U(x). P(x) <- E(x,y), P(x)." in
      let nq = Dl_normalize.normalize q in
      equivalent_on q nq [ i ])

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_datalog_monotone; prop_approx_sound_complete; prop_normalize_semantics ]

let suite =
  [
    Alcotest.test_case "tc on a chain" `Quick test_tc_chain;
    Alcotest.test_case "tc on a cycle" `Quick test_tc_cycle;
    Alcotest.test_case "conn" `Quick test_conn;
    Alcotest.test_case "fixpoint keeps edbs" `Quick test_fixpoint_idbs;
    Alcotest.test_case "nullary goal" `Quick test_nullary_goal;
    Alcotest.test_case "paper example 1" `Quick test_example1;
    Alcotest.test_case "cycle closure" `Quick test_monotone_under_delta;
    Alcotest.test_case "idb/edb split" `Quick test_idb_edb;
    Alcotest.test_case "dependencies" `Quick test_depends_recursive;
    Alcotest.test_case "fragments" `Quick test_fragments;
    Alcotest.test_case "classify" `Quick test_classify;
    Alcotest.test_case "to_ucq" `Quick test_to_ucq;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "normalize noop" `Quick test_normalize_already;
    Alcotest.test_case "rule subsumption" `Quick test_rule_subsumes;
    Alcotest.test_case "approximations of conn" `Quick test_approx_conn;
    Alcotest.test_case "approximations of tc" `Quick test_approx_tc;
    Alcotest.test_case "proposition 1" `Quick test_approx_prop1;
    Alcotest.test_case "complete unfolding" `Quick test_complete_unfolding;
    Alcotest.test_case "approximations unify repeated heads" `Quick
      test_approx_repeated_head;
  ]
  @ qcheck

(* specialization of repeated intensional arguments *)
let test_specialize () =
  let q =
    Parse.query ~goal:"G" "G <- P(x,x). P(x,y) <- E(x,y). P(x,y) <- E(x,z), P(z,y)."
  in
  let sq = Dl_specialize.transform q in
  (* no intensional body atom with repeated vars remains *)
  let idb = Datalog.is_idb sq.Datalog.program in
  let ok =
    List.for_all
      (fun (r : Datalog.rule) ->
        List.for_all
          (fun (a : Cq.atom) ->
            (not (idb a.Cq.rel))
            ||
            match Dl_specialize.repeat_pattern a.Cq.args with
            | Some p -> List.mapi (fun i _ -> i) p = p
            | None -> false)
          r.Datalog.body)
      sq.Datalog.program
  in
  Alcotest.(check bool) "no repeats left" true ok;
  (* semantics preserved *)
  let insts =
    [
      Parse.instance "E(a,a).";
      Parse.instance "E(a,b). E(b,a).";
      Parse.instance "E(a,b). E(b,c).";
      Parse.instance "E(a,b). E(b,c). E(c,a).";
    ]
  in
  Alcotest.(check bool) "equivalent" true (equivalent_on q sq insts)

let suite = suite @ [ Alcotest.test_case "specialize repeats" `Quick test_specialize ]

(* binarization of wide rules *)
let test_binarize () =
  let q =
    Parse.query ~goal:"G"
      "G <- P(a,b), P(b,c), P(c,d), P(d,e).
       P(x,y) <- E(x,y)."
  in
  let bq = Dl_binarize.transform q in
  check_int "bounded" 2 (Dl_binarize.max_idb_atoms_per_rule bq.Datalog.program);
  let insts =
    [
      Parse.instance "E(a,b). E(b,c). E(c,d). E(d,e).";
      Parse.instance "E(a,b). E(b,c).";
      Parse.instance "E(a,a).";
    ]
  in
  check_bool "equivalent" true (equivalent_on q bq insts)

let test_binarize_noop () =
  let q = Parse.query ~goal:"G" "G <- P(x), R(x). P(x) <- U(x). R(x) <- W(x)." in
  let bq = Dl_binarize.transform q in
  check_int "unchanged" (List.length q.Datalog.program) (List.length bq.Datalog.program)

let suite =
  suite
  @ [
      Alcotest.test_case "binarize wide rule" `Quick test_binarize;
      Alcotest.test_case "binarize noop" `Quick test_binarize_noop;
    ]

(* ---------------------------------------------------------------- *)
(* Differential tests: the semi-naive engine against the
   scan-based naive reference, and against Hom-based CQ evaluation on
   the nonrecursive fragment, on random program/instance pairs. *)

(* fixed global arities so every generated program validates *)
let dg_rels = [ ("E", 2); ("U", 1); ("P", 1); ("T", 2) ]
let dg_idbs = [ ("P", 1); ("T", 2) ]

let dg_var =
  QCheck.Gen.(map (fun i -> [| "x"; "y"; "z"; "w" |].(i)) (int_bound 3))

let dg_atom rels =
  QCheck.Gen.(
    let* rel, arity = oneofl rels in
    let* vs = list_repeat arity dg_var in
    return (Cq.atom rel (List.map (fun v -> Cq.Var v) vs)))

let atom_var_list atoms =
  List.concat_map
    (fun (a : Cq.atom) ->
      List.filter_map (function Cq.Var v -> Some v | Cq.Cst _ -> None) a.args)
    atoms

let dg_rule =
  QCheck.Gen.(
    let* body = list_size (int_range 1 3) (dg_atom dg_rels) in
    let bvars = atom_var_list body in
    let* hrel, harity = oneofl dg_idbs in
    let* hvs = list_repeat harity (oneofl bvars) in
    return (Datalog.rule (Cq.atom hrel (List.map (fun v -> Cq.Var v) hvs)) body))

let dg_program = QCheck.Gen.(list_size (int_range 1 5) dg_rule)

let dg_const =
  QCheck.Gen.(map (fun i -> c ("e" ^ string_of_int i)) (int_bound 3))

let dg_fact =
  QCheck.Gen.(
    let* rel, arity = oneofl dg_rels in
    let* args = list_repeat arity dg_const in
    return (Fact.make rel args))

let dg_instance =
  QCheck.Gen.(map Instance.of_list (list_size (int_bound 10) dg_fact))

let dg_pair_arb =
  QCheck.make
    ~print:(fun (p, i) ->
      Fmt.str "%a@.on %a" Datalog.pp_program p Instance.pp i)
    QCheck.Gen.(pair dg_program dg_instance)

let prop_fixpoint_differential =
  QCheck.Test.make ~name:"semi-naive = scan-based naive" ~count:120
    dg_pair_arb (fun (p, i) ->
      Instance.equal (Dl_engine.fixpoint p i) (Dl_eval.fixpoint_naive p i))

let prop_holds_differential =
  (* holds_boolean takes the early-stop path; it must agree with the full
     naive fixpoint *)
  QCheck.Test.make ~name:"early-stop holds = naive fixpoint" ~count:120
    dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          Dl_engine.holds_boolean q i
          = (Instance.tuples (Dl_eval.fixpoint_naive p i) goal <> []))
        dg_idbs)

let prop_round_counts =
  (* every union of the round loop assumes disjoint operands; a broken
     assumption would double-count facts in the sizes and fingerprints
     that cache keys are made of, with the fact sets still right *)
  let consistent r =
    let cold = Instance.of_list (Instance.facts r) in
    Instance.size r = Instance.size cold
    && Instance.fingerprint r = Instance.fingerprint cold
  in
  QCheck.Test.make ~name:"round loop keeps sizes and fingerprints" ~count:120
    (QCheck.make
       ~print:(fun (p, i, d) ->
         Fmt.str "%a@.on %a@.plus %a" Datalog.pp_program p Instance.pp i
           Instance.pp d)
       QCheck.Gen.(triple dg_program dg_instance dg_instance))
    (fun (p, i, d) ->
      let old = Dl_semi.fixpoint p i in
      (* [d] may repeat facts of [old]: the delta entry must cope *)
      let full, derived = Dl_semi.fixpoint_delta p ~old ~delta:d in
      let stopped =
        Dl_semi.fixpoint ~stop:(fun (f : Fact.t) -> f.rel = "T") p i
      in
      consistent old && consistent full && consistent derived
      && consistent stopped)

let dg_cq =
  QCheck.Gen.(
    let* body = list_size (int_range 1 3) (dg_atom [ ("E", 2); ("U", 1) ]) in
    let bvars = List.sort_uniq String.compare (atom_var_list body) in
    let* n_head = int_bound (List.length bvars) in
    return (Cq.make ~head:(List.filteri (fun i _ -> i < n_head) bvars) body))

let dg_cq_pair_arb =
  QCheck.make
    ~print:(fun (q, i) -> Fmt.str "%a@.on %a" Cq.pp q Instance.pp i)
    QCheck.Gen.(pair dg_cq dg_instance)

let prop_cq_differential =
  QCheck.Test.make ~name:"datalog engine = hom-based CQ evaluation" ~count:120
    dg_cq_pair_arb (fun (cq, i) ->
      let q = Datalog.of_cq ~goal:"DGGoal" cq in
      let norm ts = List.sort compare (List.map Array.to_list ts) in
      norm (Dl_engine.eval q i) = norm (Cq.eval cq i))

let test_arity_validation () =
  Alcotest.check_raises "rule-local clash"
    (Invalid_argument "Datalog: relation E used with arities 2 and 1")
    (fun () ->
      ignore
        (Datalog.rule
           (Cq.atom "P" [ Cq.Var "x" ])
           [ Cq.atom "E" [ Cq.Var "x"; Cq.Var "y" ]; Cq.atom "E" [ Cq.Var "x" ] ]));
  let r1 =
    Datalog.rule (Cq.atom "P" [ Cq.Var "x" ]) [ Cq.atom "E" [ Cq.Var "x"; Cq.Var "y" ] ]
  in
  let r2 = Datalog.rule (Cq.atom "P" [ Cq.Var "x" ]) [ Cq.atom "E" [ Cq.Var "x" ] ] in
  Alcotest.check_raises "cross-rule clash"
    (Invalid_argument "Datalog: relation E used with arities 2 and 1")
    (fun () -> ignore (Datalog.make [ r1; r2 ] "P"));
  (* a fact whose arity disagrees with the program is a loud error *)
  let q = Parse.query ~goal:"P" "P(x) <- E(x,y)." in
  let bad = Instance.of_list [ Fact.make "E" [ c "a" ] ] in
  check_bool "mismatch raises" true
    (try
       ignore (Dl_engine.eval q bad);
       false
     with Invalid_argument _ -> true)

let suite =
  suite
  @ [ Alcotest.test_case "arity validation" `Quick test_arity_validation ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_fixpoint_differential;
        prop_holds_differential;
        prop_cq_differential;
        prop_round_counts;
      ]
