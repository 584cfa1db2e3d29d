(* Per-theorem experiments E5–E11 (see DESIGN.md §3). *)

let pf = Format.printf

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* E5 — Theorem 5: exact decisions for CQ/UCQ queries over Datalog views *)
let e5 () =
  pf "@.### E5 — Theorem 5: CQ/UCQ queries over Datalog views (exact) ###@.";
  let tc_view =
    View.datalog "VT"
      (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")
  in
  let even_view =
    (* pairs at even distance *)
    View.datalog "VEven"
      (Parse.query ~goal:"Ev"
         "Ev(x,y) <- E(x,z), E(z,y). Ev(x,y) <- E(x,z), E(z,w), Ev(w,y).")
  in
  let cases =
    [
      ("∃ edge / {TC}", Parse.cq "q() <- E(x,y)", [ tc_view ]);
      ("∃ 2-path / {TC}", Parse.cq "q() <- E(x,y), E(y,z)", [ tc_view ]);
      ("∃ loop / {TC}", Parse.cq "q() <- E(x,x)", [ tc_view ]);
      ("∃ 2-cycle / {TC}", Parse.cq "q() <- E(x,y), E(y,x)", [ tc_view ]);
      ("∃ 2-path / {Even}", Parse.cq "q() <- E(x,y), E(y,z)", [ even_view ]);
      ("∃ edge / {Even}", Parse.cq "q() <- E(x,y)", [ even_view ]);
    ]
  in
  pf "  %-22s %-12s %s@." "case" "determined" "time";
  List.iter
    (fun (name, q, views) ->
      let r, t = time (fun () -> Md_decide.cq_query q views) in
      pf "  %-22s %-12b %.3fs@." name r t)
    cases

(* E6 — Theorem 6 / Prop. 10: failing canonical tests ↔ tiling solutions *)
let e6 () =
  pf "@.### E6 — Theorem 6: the tiling reduction (Prop 10) ###@.";
  let run name tp =
    let q = Reduction.query tp and v = Reduction.views tp in
    let verdict, t =
      time (fun () ->
          Md_tests.decide_bounded ~max_depth:4 ~max_choices_per_fact:6
            ~max_tests_per_approx:4096 q v)
    in
    (match verdict with
    | Md_tests.Not_determined test ->
        pf "  %-12s failing canonical test found (chased %d facts) %.2fs@."
          name
          (Instance.size test.Md_tests.chased)
          t;
        pf "               (⇒ NOT monotonically determined ⇔ TP solvable)@."
    | Md_tests.No_failure_up_to n ->
        pf "  %-12s no failing test among %d (%.2fs)@." name n t);
    pf "               TP has a ≤3×3 solution: %b@."
      (Tiling.has_solution ~max:3 tp <> None)
  in
  run "solvable" Tiling.simple_solvable;
  run "unsolvable" Tiling.simple_unsolvable

(* E7 — Theorem 7: Datalog-rewritable, not MDL-rewritable *)
let e7 () =
  pf "@.### E7 — Theorem 7: diamonds (Datalog yes, MDL no) ###@.";
  let rw, t = time (fun () -> Md_rewrite.inverse_rules Diamonds.query Diamonds.views) in
  let insts =
    Diamonds.chain 0 :: Diamonds.chain 2
    :: Md_rewrite.random_instances ~n:30 ~size:12 ~seed:77 Diamonds.schema
  in
  let ok = Md_rewrite.verify_boolean Diamonds.query rw Diamonds.views insts in
  pf "  Datalog rewriting: %d rules, built in %.3fs, verified on %d instances: %b@."
    (List.length rw.Datalog.program) t (List.length insts) ok;
  let k = 2 in
  let i' = Diamonds.unravelled_counterexample ~k ~depth:2 in
  let win, t =
    time (fun () ->
        Pebble.one_k_consistent ~k
          (View.image Diamonds.views (Diamonds.chain k))
          (View.image Diamonds.views i'))
  in
  pf "  MDL obstruction: Q(I)≠Q(I') across a (1,%d)-equivalent pair: %b (%.2fs)@."
    k win t

(* E8 — Theorem 8 / Lemma 6: untilable yet k-consistent grids *)
let e8 () =
  pf "@.### E8 — Theorem 8: the TP* separation ###@.";
  let tps = Parity.tp_star in
  pf "  %-8s %-10s %-16s %-12s %s@." "grid" "tilable" "t(hom)" "→2 I_TP*" "t(2-cons)";
  List.iter
    (fun (n, m) ->
      let g = Tiling.grid n m in
      let til, t1 = time (fun () -> Tiling.can_tile g tps) in
      let win, t2 =
        time (fun () -> Pebble.duplicator_wins ~k:2 g (Tiling.structure tps))
      in
      pf "  %-8s %-10b %-16.3f %-12b %.3f@."
        (Printf.sprintf "%dx%d" n m)
        til t1 win t2)
    [ (3, 3); (4, 3); (4, 4); (5, 4) ];
  pf "  shape: hom always fails, 2-consistency always passes (k < min(n,m)).@."

(* E9 — Theorem 9: separator cost tracks machine time *)
let e9 () =
  pf "@.### E9 — Theorem 9: separator cost vs view-image size ###@.";
  let m = Tm.binary_counter_parity in
  let views = Th9.views m in
  let image_of w =
    Instance.add
      (Fact.make "Vprerun" [ Const.named "ie" ])
      (View.image views (Encode.encode_input w))
  in
  pf "  %-6s %-12s %-12s %-10s %s@." "|w|" "image facts" "TM steps" "accept" "separator time";
  List.iter
    (fun n ->
      let w = String.make n '0' in
      let img = image_of w in
      let verdict, t = time (fun () -> Th9.simulating_separator m img) in
      pf "  %-6d %-12d %-12d %-10b %.4fs@." n (Instance.size img)
        (Tm.steps m w) verdict t)
    [ 2; 4; 6; 8; 10; 12; 14; 16 ];
  (* determinacy identity on full encodings *)
  let q = Th9.query m in
  let ok =
    List.for_all
      (fun w ->
        let i = Encode.encode_run m w in
        Dl_engine.holds_boolean q i
        = Th9.simulating_separator m (View.image views i))
      [ "0"; "00"; "000" ]
  in
  pf "  Q(I) = separator(V(I)) on full run encodings: %b@." ok

(* E10 — Lemma 3: view images of bounded-treewidth instances *)
let e10 () =
  pf "@.### E10 — Lemma 3: treewidth of view images ###@.";
  let views =
    [
      View.cq "P2" (Parse.cq "v(x,y) <- E(x,z), E(z,y)");
      View.cq "P3" (Parse.cq "v(x,y) <- E(x,a), E(a,b), E(b,y)");
    ]
  in
  let r = Option.get (View.max_radius views) in
  let path n =
    Instance.of_list
      (List.init n (fun i ->
           Fact.make "E"
             [
               Const.named (Printf.sprintf "v%d" i);
               Const.named (Printf.sprintf "v%d" (i + 1));
             ]))
  in
  let cycle n =
    Instance.union (path (n - 1))
      (Instance.of_list
         [ Fact.make "E" [ Const.named (Printf.sprintf "v%d" (n - 1)); Const.named "v0" ] ])
  in
  pf "  view radius r = %d@." r;
  pf "  %-14s %-8s %-14s %-14s %s@." "instance" "k(TD)" "width(ext)" "Lemma3 bound" "valid for V(I)";
  List.iter
    (fun (name, i) ->
      let td = Decomp.heuristic i in
      let k = Decomp.width td in
      let ext = Decomp.extend td r in
      let img = View.image views i in
      let bound =
        float_of_int k
        *. (((float_of_int k ** float_of_int (r + 1)) -. 1.) /. float_of_int (k - 1))
      in
      pf "  %-14s %-8d %-14d %-14.0f %b@." name k (Decomp.width ext) bound
        (Decomp.is_valid ext (Instance.union i img)))
    [
      ("path-8", path 8);
      ("path-16", path 16);
      ("cycle-8", cycle 8);
      ("cycle-12", cycle 12);
    ]

(* E11 — forward/backward round trip *)
let e11 () =
  pf "@.### E11 — §3 pipeline: forward ∘ backward round trip ###@.";
  let cases =
    [
      ( "conn",
        Parse.query ~goal:"G"
          "P(x) <- U(x). P(x) <- R(x,y), P(y). G <- P(x), S(x).",
        Schema.of_list [ ("R", 2); ("U", 1); ("S", 1) ] );
      ( "two-chain",
        Parse.query ~goal:"G"
          "A(x) <- U(x). A(x) <- R(x,y), A(y). B(x) <- W(x). B(x) <- R(x,y), B(y). G <- A(x), B(x).",
        Schema.of_list [ ("R", 2); ("U", 1); ("W", 1) ] );
    ]
  in
  List.iter
    (fun (name, q, schema) ->
      let views =
        List.map (fun (r, n) -> View.atomic ("V" ^ r) r n) (Schema.relations schema)
      in
      let rw, t = time (fun () -> Md_rewrite.forward_backward_atomic q views) in
      let insts = Md_rewrite.random_instances ~n:40 ~size:10 ~seed:101 schema in
      let ok = Md_rewrite.verify_boolean q rw views insts in
      pf "  %-10s %d rules in %.3fs, verified on %d instances: %b@." name
        (List.length rw.Datalog.program)
        t (List.length insts) ok)
    cases

(* E12 — the appendix's stratified rewriting of Q_TP *)
let e12 () =
  pf "@.### E12 — stratified rewriting of Q_TP (appendix) ###@.";
  let run name tp =
    let q = Reduction.query tp and views = Reduction.views tp in
    let r = Reduction.stratified_rewriting tp in
    let insts =
      Reduction.axes 1 :: Reduction.axes 3
      :: Reduction.grid_test tp ~tau:(fun _ _ -> List.hd tp.Tiling.tiles) 2 2
      :: Md_rewrite.random_instances ~n:60 ~size:14 ~seed:123
           (Reduction.schema_sigma tp)
    in
    let agree =
      List.for_all
        (fun i -> Dl_engine.holds_boolean q i = r (View.image views i))
        insts
    in
    pf "  %-12s R = VhC ∨ VhD ∨ Q*verify ∨ (Q*start ∧ ProductTest) on %d instances: %b@."
      name (List.length insts) agree
  in
  run "unsolvable" Tiling.simple_unsolvable;
  run "TP*" Parity.tp_star;
  pf "  (so the Theorem 8 example, though not Datalog-rewritable, is@.";
  pf "   rewritable in stratified Datalog — the paper's closing remark)@."

(* E13 — ablations of the decision-procedure design choices *)
let e13 () =
  pf "@.### E13 — ablations: Theorem 5 pipeline design choices ###@.";
  let tc_view =
    View.datalog "VT"
      (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")
  in
  let path n =
    Cq.make ~head:[]
      (List.init n (fun i ->
           Cq.atom "E"
             [ Cq.Var (Printf.sprintf "x%d" i); Cq.Var (Printf.sprintf "x%d" (i + 1)) ]))
  in
  let nta_of ~binarize n =
    let q = path n in
    let q'' = Md_decide.compose_with_views (Datalog.of_cq ~goal:"G0" q) [ tc_view ] in
    (q, fst (Forward.approximations_nta ~binarize q''))
  in
  let empty ~prune (q, nta) = Run.check_empty nta (Cq_dta.make ~negate:true ~prune q) in
  let ms t = Printf.sprintf "%.2f ms" (1000. *. t) in
  let row name cell = pf "  %-30s %-10s %-10s %s@." name (cell 3) (cell 4) (cell 5) in
  pf "  %-30s %-10s %-10s %s@." "configuration" "3-path" "4-path" "5-path";
  List.iter
    (fun (name, binarize, prune, sizes) ->
      row name (fun n ->
          if not (List.mem n sizes) then "(skipped)"
          else
            let r, t = time (fun () -> empty ~prune (nta_of ~binarize n)) in
            assert r;
            ms t))
    [
      ("full pipeline", true, true, [ 3; 4; 5 ]);
      ("no domination pruning", true, false, [ 3; 4 ]);
      ("no rule binarization", false, true, [ 3 ]);
      ("neither", false, false, [ 3 ]);
    ];
  (* the emptiness check alone, composition and NTA built beforehand *)
  row "emptiness check, median of 5" (fun n ->
      let input = nta_of ~binarize:true n in
      let ts =
        List.init 5 (fun _ ->
            let r, t = time (fun () -> empty ~prune:true input) in
            assert r;
            t)
      in
      ms (List.nth (List.sort Float.compare ts) 2));
  pf "  (binarization bounds transition arity — without it the Goal rule@.";
  pf "   for an n-path has n(n+1)/2 children and the product explodes)@."

(* E14 — the planner's choice: magic sets per goal.

   [Dl_engine.holds] runs the magic-sets arm ([Dl_magic.holds]) when the
   goal tuple binds a constant and no adorned predicate of the transform
   is all-free, and the plain VM ([Dl_semi]) otherwise.  Each row times
   the planner against both arms forced, on goals from both sides of
   the rule: point goals whose binding reaches every recursive
   predicate, anchored RPQ goals whose state relations are also
   demanded all-free, and all-free Boolean goals (forced through
   [Dl_magic.holds] on the empty tuple).  The programs are built once,
   so the planner's transform is a cache hit, as it is in a steady
   state.  Each arm runs once untimed, which sizes its timed runs: one
   repeats the call for about 2 ms.  The medians of 5 timed runs per arm
   are printed, per call; the runs alternate between the arms, in an
   order rotated each time. *)
let e14 () =
  pf "@.### E14 — the planner: magic sets per goal ###@.";
  let node i = Const.named (Printf.sprintf "n%d" i) in
  let chain n =
    Instance.of_list
      (List.init n (fun i -> Fact.make "E" [ node i; node (i + 1) ])
      @ (List.init (max 0 (n - 5)) (fun i -> i)
        |> List.filter (fun i -> i mod 5 = 0)
        |> List.map (fun i -> Fact.make "E" [ node i; node (i + 5) ])))
  in
  let tree n =
    Instance.of_list
      (List.init (n - 1) (fun k ->
           Fact.make "E" [ node (k / 2); node (k + 1) ]))
  in
  let tc = Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)." in
  let left_tc =
    Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- T(x,z), E(z,y)."
  in
  let sg =
    Parse.query ~goal:"S"
      "S(x,y) <- E(p,x), E(p,y). S(x,y) <- E(p,x), S(p,q), E(q,y)."
  in
  let anchored e src g =
    Rpq_translate.anchored (Rpq_translate.translate (Rpq.parse e)) g src
  in
  let churn =
    Rpq_graph.scale_free ~seed:7919 ~labels:[ "knows"; "follows" ] ~nodes:1536
      ~edges:2000 ()
  in
  let churn_q = "(knows|follows)*.follows" in
  let rq1, rg1 = anchored churn_q (node 700) churn in
  let rq2, rg2 = anchored churn_q (node 0) churn in
  let rq3, rg3 =
    anchored "(r|d)*" (Rpq_graph.grid_node 15 15) (Rpq_graph.grid 16 16)
  in
  let tp = Tiling.simple_solvable in
  let grid = Reduction.grid_test tp ~tau:(fun _ _ -> "w") 3 3 in
  let goals =
    [
      ("tc chain-256 n250,n255", tc, chain 256, [| node 250; node 255 |]);
      ("tc chain-256 n255,n0", tc, chain 256, [| node 255; node 0 |]);
      ("left tc chain-128 n100,n120", left_tc, chain 128,
       [| node 100; node 120 |]);
      ("sg tree-255 n127,n254", sg, tree 255, [| node 127; node 254 |]);
      ("rpq churn n700->n3", rq1, rg1, [| node 3 |]);
      ("rpq churn n0->n1500", rq2, rg2, [| node 1500 |]);
      ("rpq grid-16 15_15->0_0", rq3, rg3, [| Rpq_graph.grid_node 0 0 |]);
      ("grid3x3 Boolean", Reduction.query tp, grid, [||]);
      ("diamond5 Boolean", Diamonds.query, Diamonds.chain 5, [||]);
    ]
  in
  let runs = 5 in
  pf "  %-28s %-36s %-6s %-6s %10s %10s %10s@." "goal" "adorned IDBs" "pick"
    "answer" "planner" "magic" "vm";
  List.iter
    (fun (name, q, i, tup) ->
      let arms =
        [
          (fun () -> Dl_engine.holds q i tup);
          (fun () -> Dl_magic.holds q i tup);
          (fun () -> Dl_semi.holds q i tup);
        ]
      in
          (* the warm-up run, which also sizes the arm's repetitions *)
      let warm =
        List.map
          (fun f ->
            let answer, t = time f in
            (answer, max 1 (min 5000 (int_of_float (2e-3 /. Float.max t 1e-7)))))
          arms
      in
      let answers = List.map fst warm in
      let times = Array.make_matrix 3 runs 0. in
      let arms = Array.of_list (List.combine arms warm) in
      for k = 0 to runs - 1 do
        (* rotate the order, so no arm always follows the slowest *)
        for j = 0 to 2 do
          let a = (j + k) mod 3 in
          let f, (_, reps) = arms.(a) in
          times.(a).(k) <-
            snd (time (fun () -> for _ = 1 to reps do ignore (f ()) done))
            /. float_of_int reps
        done
      done;
      let us a =
        let ts = Array.copy times.(a) in
        Array.sort Float.compare ts;
        Printf.sprintf "%.1f µs" (1e6 *. ts.(runs / 2))
      in
      let adorned =
        if Array.length tup = 0 then "-"
        else
          Dl_magic.transform q (Dl_magic.all_bound (Array.length tup))
          |> Dl_magic.adornments
          |> List.map (fun (r, a) -> r ^ "#" ^ a)
          |> String.concat " "
      in
      assert (List.for_all (Bool.equal (List.hd answers)) answers);
      pf "  %-28s %-36s %-6s %-6b %10s %10s %10s@." name adorned
        (if Dl_engine.uses_magic q tup then "magic" else "vm")
        (List.hd answers) (us 0) (us 1) (us 2))
    goals;
  pf "  (each arm warmed once untimed, then %d alternating timed runs;@." runs;
  pf "   per-call CPU time — single-core container numbers)@."

(* E16 — the decision service's result cache on a repeated workload.

   Methodology: a service session loads one recursive program and a set
   of instances, then the same mixed eval/holds/mondet-test request
   stream is replayed through Svc_service.handle_line.  The first pass
   is all cache misses (every request pays a full evaluation); every
   later pass is all hits (a request pays parse + canonical-form digest
   + LRU lookup).  Reported: per-pass wall time, hit/miss counters from
   the server's own stats verb, and the cold/warm speedup.  Caveats:
   single-core container numbers; the warm path's cost is
   dominated by re-printing the canonical forms for the digest, so it
   grows with instance size even on hits. *)
let e16 () =
  pf "@.### E16 — service result cache: cold vs warm replay ###@.";
  let svc = Svc_service.create () in
  let feed line =
    match (Svc_service.handle_line svc line).Svc_proto.result with
    | Svc_proto.Ok_ b -> b
    | Svc_proto.Error_ m -> failwith ("e16 setup: " ^ m)
    | Svc_proto.Timeout -> failwith "e16 setup: unexpected timeout"
    | Svc_proto.Busy -> failwith "e16 setup: unexpected busy"
  in
  ignore
    (feed
       "l1 load s program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
        T(z,y).");
  ignore
    (feed
       "l2 load s program reach goal Goal : Goal() <- T(x,y). T(x,y) <- \
        E(x,y). T(x,y) <- E(x,z), T(z,y).");
  ignore (feed "l3 load s views v : V(x,y) <- E(x,y).");
  let sizes = [ 16; 32; 64 ] in
  List.iter
    (fun n ->
      let edges =
        String.concat " "
          (List.init (n - 1) (fun i -> Printf.sprintf "E(n%d,n%d)." i (i + 1)))
      in
      ignore (feed (Printf.sprintf "l-i%d load s instance i%d : %s" n n edges)))
    sizes;
  let stream =
    List.concat_map
      (fun n ->
        [
          Printf.sprintf "q-e%d eval s tc i%d" n n;
          Printf.sprintf "q-h%d holds s tc i%d (n0,n%d)" n n (n - 1);
          Printf.sprintf "q-b%d eval s reach i%d" n n;
        ])
      sizes
    @ [ "q-md mondet-test s reach v" ]
  in
  let replay () = List.iter (fun l -> ignore (feed l)) stream in
  let passes = 5 in
  let times =
    List.init passes (fun _ -> snd (time replay))
  in
  let cold = List.hd times in
  let warm =
    List.fold_left ( +. ) 0. (List.tl times) /. float_of_int (passes - 1)
  in
  List.iteri
    (fun i t ->
      pf "  pass %d (%s): %.4fs (%d requests)@." (i + 1)
        (if i = 0 then "cold" else "warm")
        t (List.length stream))
    times;
  pf "  %s@." (feed "q-stats stats");
  pf "  cold/warm speedup: %.1fx@." (cold /. warm);
  pf "  (warm requests pay parse + canonical-form digest + LRU lookup;@.";
  pf "   single-core container numbers)@."

(* E17 is measured by the cache-key differential suite, and E18 was a
   TCP load run that is no longer in the tree; see EXPERIMENTS.md for
   both, E18's history included.  The next in-process experiment is
   E19. *)

(* E19 — the register-bytecode VM: lowering cost and evaluation time.

   Methodology: the three recursive/join workloads also timed by the
   engine/vm-* bench rows — a non-recursive three-way join over 614
   edges, transitive closure of a 128-chain (~8k derived facts, many
   narrow delta rounds), and same-generation on a 192-node graph (wide
   rounds, each a fat three-way join) — evaluated under the VM (static
   plans lowered once to flat bytecode) and, as a cross-check of the
   answers (sorted tuple sets, not just counts), under magic sets.  The
   one-time lowering cost is reported separately: bytecode size and a
   cold [Dl_vm.compile] timing per program (warm compiles are
   compile-cache hits). *)
let e19 () =
  pf "@.### E19 — the bytecode VM: lowering cost and evaluation time ###@.";
  let node i = Const.named (Printf.sprintf "n%d" i) in
  let graph n =
    Instance.of_list
      (List.init n (fun i -> Fact.make "E" [ node i; node (i + 1) ])
      @ (List.init (max 0 (n - 5)) (fun i -> i)
        |> List.filter (fun i -> i mod 5 = 0)
        |> List.map (fun i -> Fact.make "E" [ node i; node (i + 5) ])))
  in
  let workloads =
    [
      ("join3 over 614 edges",
       Parse.query ~goal:"Q" "Q(x,w) <- E(x,y), E(y,z), E(z,w).",
       graph 512);
      ("tc of a 128-chain",
       Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).",
       graph 128);
      ("same-gen on 192 nodes",
       Parse.query ~goal:"S"
         "S(x,y) <- E(p,x), E(p,y). S(x,y) <- E(p,x), S(p,q), E(q,y).",
       graph 192);
    ]
  in
  (* one-time lowering cost, per program: bytecode volume and the cold
     compile time — measured before any evaluation, since the compile
     cache makes every later compile a mutex-guarded lookup *)
  List.iter
    (fun (name, q, _) ->
      let rps, t = time (fun () -> Dl_vm.compile q.Datalog.program) in
      let words =
        List.fold_left
          (fun acc rp ->
            Array.fold_left
              (fun acc (p : Dl_vm.program) -> acc + Array.length p.code)
              acc rp.Dl_vm.semi)
          0 rps
      in
      pf "  lowering %-24s %d rule(s), %d bytecode words, %.4fs@." name
        (List.length rps) words t)
    workloads;
  pf "  %-24s %-10s %-10s %s@." "workload" "engine" "answers" "time";
  List.iter
    (fun (name, q, g) ->
      let a0, t0 = time (fun () -> Dl_engine.eval q g) in
      pf "  %-24s %-10s %-10d %.3fs@." name "vm" (List.length a0) t0)
    workloads;
  pf "  (single-core container numbers)@."

(* E20 — incremental maintenance vs cold re-evaluation.

   Methodology: three transitive-closure workloads with different
   alternative-proof profiles — a 128-chain with shortcut edges (as in
   the engine rows: a mid-chain cut is load-bearing for a few hundred
   paths while the shortcuts keep thousands of others provable), a
   12x12 grid (right/down edges: wide fixpoint, every internal cut
   genuinely loses paths), and a 32-diamond chain (every deleted arm
   has an alternative proof through the other arm, so Backward/Forward
   deletes almost nothing but searches the whole downstream for it).
   For each: a cold materialization build ([Dl_incr.create], the price
   a cache-missed eval pays), then averaged single-fact and batch-32
   mutations in both directions — asserting fresh edges / retracting
   them again, and retracting an existing internal edge / re-asserting
   it.  After all mutations the maintained fixpoint is asserted equal
   to a cold [Dl_engine.fixpoint] of the final base (the same oracle the
   qcheck differential suite uses).  Reported speedups are cold-build
   time over per-mutation repair time; each row also prints the
   Backward/Forward counters ([Dl_incr.last_repair]) of its last
   repetition. *)
let e20 () =
  pf "@.### E20 — incremental maintenance vs cold re-evaluation ###@.";
  let tc =
    Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
  in
  let e a b = Fact.make "E" [ a; b ] in
  let node i = Const.named (Printf.sprintf "n%d" i) in
  let xnode i = Const.named (Printf.sprintf "x%d" i) in
  let chain n =
    Instance.of_list
      (List.init n (fun i -> e (node i) (node (i + 1)))
      @ (List.init (max 0 (n - 5)) (fun i -> i)
        |> List.filter (fun i -> i mod 5 = 0)
        |> List.map (fun i -> e (node i) (node (i + 5)))))
  in
  let grid n =
    let g i j = Const.named (Printf.sprintf "g%d_%d" i j) in
    Instance.of_list
      (List.concat
         (List.init n (fun i ->
              List.concat
                (List.init n (fun j ->
                     (if i < n - 1 then [ e (g i j) (g (i + 1) j) ] else [])
                     @ if j < n - 1 then [ e (g i j) (g i (j + 1)) ] else [])))))
  in
  let diamond k =
    let a i = Const.named (Printf.sprintf "a%d" i)
    and b i = Const.named (Printf.sprintf "b%d" i) in
    Instance.of_list
      (List.concat
         (List.init k (fun i ->
              [
                e (node i) (a i); e (node i) (b i);
                e (a i) (node (i + 1)); e (b i) (node (i + 1));
              ])))
  in
  let side anchor =
    List.init 32 (fun i ->
        e (if i = 0 then anchor else xnode (i - 1)) (xnode i))
  in
  let g12 = Const.named "g11_11" and a5 = Const.named "a5" in
  let workloads =
    [
      ("tc-chain-128", chain 128,
       [ e (node 128) (xnode 0) ], side (node 128), [ e (node 63) (node 64) ]);
      ("grid-12x12", grid 12,
       [ e g12 (xnode 0) ], side g12, [ e (Const.named "g5_5") (Const.named "g6_5") ]);
      ("diamond-32", diamond 32,
       [ e (node 32) (xnode 0) ], side (node 32), [ e (node 5) a5 ]);
    ]
  in
  let reps = 5 in
  pf "  %-14s %-18s %10s %10s %8s %8s %8s %8s@." "workload" "mutation" "repair"
    "cold" "speedup" "checked" "proved" "deleted";
  List.iter
    (fun (name, g, fresh1, fresh32, mid1) ->
      let m, tcold = time (fun () -> Dl_incr.create tc.Datalog.program g) in
      pf "  %-14s %-18s %10s %8.4fs %8s@." name "(cold build)" "-" tcold "-";
      (* mean time of each direction of a mutate/undo pair, with the
         B/F counters of its last repetition *)
      let avg_pair f g =
        let ta = ref 0. and tb = ref 0. in
        let ra = ref (Dl_incr.last_repair m) and rb = ref (Dl_incr.last_repair m) in
        for _ = 1 to reps do
          let (), a = time f in
          ta := !ta +. a;
          ra := Dl_incr.last_repair m;
          let (), b = time g in
          tb := !tb +. b;
          rb := Dl_incr.last_repair m
        done;
        ( (!ta /. float_of_int reps, !ra),
          (!tb /. float_of_int reps, !rb) )
      in
      let row what (ta, (r : Dl_incr.repair)) =
        pf "  %-14s %-18s %8.5fs %8.4fs %7.1fx %8d %8d %8d@." name what ta tcold
          (tcold /. ta) r.checked r.proved r.deleted
      in
      let a, r =
        avg_pair
          (fun () -> Dl_incr.assert_facts m fresh1)
          (fun () -> Dl_incr.retract_facts m fresh1)
      in
      row "assert-1-fresh" a;
      row "retract-1-fresh" r;
      let d, b =
        avg_pair
          (fun () -> Dl_incr.retract_facts m mid1)
          (fun () -> Dl_incr.assert_facts m mid1)
      in
      row "retract-1-internal" d;
      row "assert-1-internal" b;
      let a32, r32 =
        avg_pair
          (fun () -> Dl_incr.assert_facts m fresh32)
          (fun () -> Dl_incr.retract_facts m fresh32)
      in
      row "assert-32" a32;
      row "retract-32" r32;
      assert (
        Instance.equal (Dl_incr.full m)
          (Dl_engine.fixpoint (Dl_incr.program m) (Dl_incr.base m))))
    workloads;
  pf "  (repair = one maintenance pass over an existing materialization;@.";
  pf "   cold = Dl_incr.create, one full fixpoint of the program —@.";
  pf "   what a cache-missed eval pays; checked/proved/deleted = the@.";
  pf "   Backward/Forward counters of the repair (Dl_incr.last_repair).@.";
  pf "   Single-core container numbers)@."

(* E21 — RPQs over views at graph scale (Francis–Segoufin–Sirangelo,
   arXiv:1511.00938): direct Datalog evaluation of an RPQ against
   certain answers through the maximal contained rewriting over RPQ
   views, with a product-BFS reachability oracle as referee.  The
   rewriting here is lossless, so all three must agree exactly. *)
let e21 () =
  pf "@.### E21 — RPQ evaluation vs view rewriting at graph scale ###@.";
  let q = Rpq.parse "(knows|knows^)*.follows" in
  let views =
    [ ("vk", Rpq.parse "knows|knows^"); ("vf", Rpq.parse "follows") ]
  in
  let rw, t_rw = time (fun () -> Rpq_views.rewrite ~views q) in
  pf "  rewriting over {vk, vf}: lossless=%b, %d rewriting states (%.4fs)@."
    rw.Rpq_views.lossless rw.Rpq_views.rauto.Rpq_nfa.n t_rw;
  pf "  direct translation: %d Thompson states -> %d minimal-DFA states, \
      %d anchored rules@."
    (Rpq_nfa.of_regex q).Rpq_nfa.n
    (Rpq_nfa.minimize (Rpq_nfa.of_regex q)).Rpq_nfa.n
    (List.length
       (fst (Rpq_translate.anchored (Rpq_translate.translate q) Instance.empty
               (Rpq_graph.node 0))).Datalog.program);
  (* source-anchored product-BFS oracle: frontier over (node, state) *)
  let oracle_from e g src =
    let nfa = Rpq_nfa.of_regex e in
    let succ (l : Rpq_nfa.letter) x =
      if l.back then
        List.map (fun t -> t.(0)) (Instance.tuples_with g l.rel [ (1, x) ])
      else List.map (fun t -> t.(1)) (Instance.tuples_with g l.rel [ (0, x) ])
    in
    let seen = Hashtbl.create 1024 in
    let frontier = ref [] in
    let push v st =
      if not (Hashtbl.mem seen (v, st)) then begin
        Hashtbl.add seen (v, st) ();
        frontier := (v, st) :: !frontier
      end
    in
    List.iter (fun st -> push src st) nfa.Rpq_nfa.starts;
    while !frontier <> [] do
      let batch = !frontier in
      frontier := [];
      List.iter
        (fun (v, st) ->
          List.iter
            (fun (p, l, p') ->
              if p = st then List.iter (fun v' -> push v' p') (succ l v))
            nfa.Rpq_nfa.delta)
        batch
    done;
    (* the 0-edge pair (src, start) is final exactly when ε ∈ L, which
       matches eval_from's source-inclusion convention *)
    List.sort_uniq compare
      (Hashtbl.fold
         (fun (v, st) () acc ->
           if List.mem st nfa.Rpq_nfa.finals then v :: acc else acc)
         seen [])
  in
  let g =
    Rpq_graph.scale_free ~seed:20260807 ~labels:[ "knows"; "follows" ]
      ~nodes:2048 ~edges:11000 ()
  in
  pf "  graph: scale-free, 2048 nodes, %d edges@." (Instance.size g);
  let src = Rpq_graph.node 0 in
  let d_vm, t_vm =
    time (fun () -> Rpq_translate.eval_from (Rpq_translate.translate q) g src)
  in
  let cert, t_cert = time (fun () -> Rpq_views.certain_from rw g src) in
  let orac, t_or = time (fun () -> oracle_from q g src) in
  let agree = List.sort compare d_vm = orac && List.sort compare cert = orac in
  pf "  anchored from n0: %d answers@." (List.length orac);
  pf "  %-28s %10s@." "path" "time";
  pf "  %-28s %9.4fs@." "direct (vm)" t_vm;
  pf "  %-28s %9.4fs@." "rewriting (image + certain)" t_cert;
  pf "  %-28s %9.4fs@." "naive product BFS" t_or;
  pf "  all three answer sets equal: %b@." agree;
  assert agree;
  (* all-pairs cross-check on a smaller graph: every node of the
     alphabet-restricted active domain is a BFS source *)
  let g2 =
    Rpq_graph.scale_free ~seed:11 ~labels:[ "knows"; "follows" ] ~nodes:256
      ~edges:1024 ()
  in
  let rels = Rpq.rels q in
  let sub = Instance.restrict (fun r -> List.mem r rels) g2 in
  let nodes = Const.Set.elements (Instance.adom sub) in
  let d2, t_d2 =
    time (fun () -> Rpq_translate.eval (Rpq_translate.translate q) g2)
  in
  let c2, t_c2 = time (fun () -> Rpq_views.certain rw g2) in
  let o2, t_o2 =
    time (fun () ->
        List.sort_uniq compare
          (List.concat_map
             (fun x -> List.map (fun y -> (x, y)) (oracle_from q g2 x))
             nodes))
  in
  let agree2 = List.sort compare d2 = o2 && List.sort compare c2 = o2 in
  pf "  all-pairs on 256 nodes / %d edges: %d answers;  direct %.4fs  \
     rewriting %.4fs  oracle %.4fs;  equal: %b@."
    (Instance.size g2) (List.length o2) t_d2 t_c2 t_o2 agree2;
  assert agree2;
  pf "  (lossless rewriting ⇒ certain answers = direct evaluation; the@.";
  pf "   oracle explores the (graph × NFA) product breadth-first)@."
