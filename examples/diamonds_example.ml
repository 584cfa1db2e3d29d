(* Theorem 7: a Monadic Datalog query over CQ views that has a Datalog
   rewriting but no MDL rewriting.

   Run with:  dune exec examples/diamonds_example.exe *)

let section title = Format.printf "@.== %s ==@." title

let () =
  section "The diamond query and its views (Theorem 7)";
  Format.printf "%a@.%a@." Datalog.pp_query Diamonds.query View.pp_collection
    Diamonds.views;

  section "The chain of diamonds I_k";
  let k = 2 in
  let ik = Diamonds.chain k in
  Format.printf "I_%d has %d facts; Q(I_%d) = %b@." k (Instance.size ik) k
    (Dl_engine.holds_boolean Diamonds.query ik);
  let jk = View.image Diamonds.views ik in
  Format.printf "its view image J_%d (Figure 3(b)): %a@." k Instance.pp jk;

  section "A Datalog rewriting exists (inverse rules)";
  let rw = Md_rewrite.inverse_rules Diamonds.query Diamonds.views in
  let insts =
    Diamonds.chain 0 :: Diamonds.chain 1 :: Diamonds.chain 3
    :: Md_rewrite.random_instances ~n:40 ~size:12 ~seed:21 Diamonds.schema
  in
  Format.printf "inverse-rules rewriting: %d rules, verified on %d instances: %b@."
    (List.length rw.Datalog.program)
    (List.length insts)
    (Md_rewrite.verify_boolean Diamonds.query rw Diamonds.views insts);

  section "But no MDL rewriting: the unravelled counterexample";
  let i' = Diamonds.unravelled_counterexample ~k ~depth:2 in
  Format.printf "I'_%d (inverse chase of the guarded (1,·)-unravelling of J_%d): %d facts@."
    k k (Instance.size i');
  Format.printf "Q(I'_%d) = %b  (the diamond chain is broken)@." k
    (Dl_engine.holds_boolean Diamonds.query i');
  let v_i = View.image Diamonds.views ik in
  let v_i' = View.image Diamonds.views i' in
  Format.printf
    "Duplicator wins the (1,%d) pebble game between V(I_%d) and V(I'_%d): %b@."
    k k k
    (Pebble.one_k_consistent ~k v_i v_i');
  Format.printf
    "→ any MDL rewriting would transfer Q across the game, contradiction.@.";

  section "Figure 4: the long row of R-rectangles has no homomorphism";
  (* the row of k+1 R-atoms sharing y/z pairs *)
  let row n =
    Cq.make ~head:[]
      (List.concat
         (List.init n (fun i ->
              [
                Cq.atom "R"
                  [
                    Cq.Var (Printf.sprintf "y%d" i);
                    Cq.Var (Printf.sprintf "z%d" i);
                    Cq.Var (Printf.sprintf "y%d" (i + 1));
                    Cq.Var (Printf.sprintf "z%d" (i + 1));
                  ];
              ])))
  in
  Format.printf "row of %d rectangles into V(I'_%d): %b (expect false)@."
    (k + 1) k
    (Cq.holds_boolean (row (k + 1)) v_i');
  Format.printf "row of %d rectangles into V(I_%d): %b (expect true)@." k k
    (Cq.holds_boolean (row k) v_i);
  Format.printf "@.done.@."
