(* Quickstart: Example 1 of the paper, end to end.

   A Datalog query over a ternary/binary/unary schema, two collections of
   views, monotonic-determinacy checks and rewritings.

   Run with:  dune exec examples/quickstart.exe *)

let section title = Format.printf "@.== %s ==@." title

let () =
  section "The query (Example 1)";
  let q =
    Parse.query ~goal:"GoalQ"
      "GoalQ <- U1(x), W1(x).
       W1(x) <- T(x,y,z), B(z,w), B(y,w), W1(w).
       W1(x) <- U2(x)."
  in
  Format.printf "%a@." Datalog.pp_query q;
  Format.printf "fragment: %a@." Dl_fragment.pp_fragment (Dl_fragment.classify q);

  section "Views V0, V1, V2";
  let views =
    [
      View.cq "V0" (Parse.cq "v(x,w) <- T(x,y,z), B(z,w), B(y,w)");
      View.cq "V1" (Parse.cq "v(x) <- U1(x)");
      View.cq "V2" (Parse.cq "v(x) <- U2(x)");
    ]
  in
  Format.printf "%a@." View.pp_collection views;

  section "Evaluating the query";
  let witness =
    Parse.instance
      "U1(x0). T(x0,y0,z0). B(z0,w0). B(y0,w0).
       T(w0,y1,z1). B(z1,w1). B(y1,w1). U2(w1)."
  in
  Format.printf "Q on a two-diamond witness: %b@."
    (Dl_engine.holds_boolean q witness);
  Format.printf "its view image: %a@." Instance.pp (View.image views witness);

  section "Monotonic determinacy (bounded canonical tests, Lemma 5)";
  (match Md_tests.decide_bounded ~max_depth:5 q views with
  | Md_tests.No_failure_up_to n ->
      Format.printf "no failing test among %d canonical tests@." n
  | Md_tests.Not_determined t ->
      Format.printf "NOT determined; failing test:@.%a@." Md_tests.pp_test t);

  section "The paper's hand rewriting, verified";
  let hand =
    Parse.query ~goal:"GoalQ"
      "GoalQ <- V1(x), W1(x).
       W1(x) <- V0(x,w), W1(w).
       W1(x) <- V2(x)."
  in
  let schema = Schema.of_list [ ("T", 3); ("B", 2); ("U1", 1); ("U2", 1) ] in
  let insts =
    witness :: Md_rewrite.random_instances ~n:50 ~size:14 ~seed:2024 schema
  in
  Format.printf "agrees with Q through the views on %d instances: %b@."
    (List.length insts)
    (Md_rewrite.verify_boolean q hand views insts);

  section "The inverse-rules rewriting (appendix algorithm)";
  let ir = Md_rewrite.inverse_rules q views in
  Format.printf "%d rules; verified: %b@."
    (List.length ir.Datalog.program)
    (Md_rewrite.verify_boolean q ir views insts);

  section "A second view collection: V3 and the Datalog view V4";
  (* the paper: Q is also monotonically determined using V3, V4, with the
     CQ rewriting ∃y z V3(y,z) ∧ V4(y,z) *)
  let v3 = View.cq "V3" (Parse.cq "v(y,z) <- U1(x), T(x,y,z)") in
  let v4 =
    View.datalog "V4"
      (Parse.query ~goal:"GoalV4"
         "GoalV4(y,z) <- T(x,y,z), B(z,w), B(y,w), T(w,q,r), GoalV4(q,r).
          GoalV4(y,z) <- B(y,w), B(z,w), U2(w).")
  in
  let views34 = [ v3; v4 ] in
  let cq_rw = Parse.cq "q() <- V3(y,z), V4(y,z)" in
  (* soundness: the rewriting never over-approximates the query *)
  let sound =
    List.for_all
      (fun i ->
        (not (Cq.holds_boolean cq_rw (View.image views34 i)))
        || Dl_engine.holds_boolean q i)
      insts
  in
  Format.printf "soundness (rewriting ⇒ query) on %d random instances: %b@."
    (List.length insts) sound;
  (* completeness on diamond chains of every length ≥ 1 *)
  let diamond_chain n =
    let facts = ref [ Fact.make "U1" [ Const.named "p0" ] ] in
    for i = 0 to n - 1 do
      let p j = Const.named (Printf.sprintf "p%d" j) in
      let y = Const.named (Printf.sprintf "dy%d" i) in
      let z = Const.named (Printf.sprintf "dz%d" i) in
      facts :=
        Fact.make "T" [ p i; y; z ]
        :: Fact.make "B" [ z; p (i + 1) ]
        :: Fact.make "B" [ y; p (i + 1) ]
        :: !facts
    done;
    Instance.add (Fact.make "U2" [ Const.named (Printf.sprintf "p%d" n) ])
      (Instance.of_list !facts)
  in
  let complete =
    List.for_all
      (fun n ->
        Cq.holds_boolean cq_rw (View.image views34 (diamond_chain n)))
      [ 1; 2; 3; 4 ]
  in
  Format.printf "completeness on diamond chains of length 1..4: %b@." complete;

  section "A corner case the paper's Example 1 misses";
  (* With zero diamonds the query can still hold — U1(a) ∧ U2(a) — but
     both V3 and V4 are empty, so no monotone function of these views can
     answer Q.  Indeed the canonical-test search refutes monotonic
     determinacy over {V3, V4}: *)
  let degenerate = Parse.instance "U1(a). U2(a)." in
  Format.printf "I = {U1(a), U2(a)}: Q(I) = %b but V3(I) = V4(I) = ∅@."
    (Dl_engine.holds_boolean q degenerate);
  (match Md_tests.decide_bounded ~max_depth:3 q views34 with
  | Md_tests.Not_determined t ->
      Format.printf
        "bounded canonical tests find the failing test (approximation %a)@."
        Cq.pp t.Md_tests.approx
  | Md_tests.No_failure_up_to n ->
      Format.printf "unexpectedly, no failing test among %d@." n);
  Format.printf
    "so the paper's claim holds for runs with at least one diamond step,@.";
  Format.printf "but not in the degenerate zero-diamond case.@.";
  Format.printf "@.done.@."
