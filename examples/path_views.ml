(* Reachability queries and views: the §3 forward–backward pipeline and
   the Theorem 5 decision procedure on path-shaped workloads.

   Run with:  dune exec examples/path_views.exe *)

let section title = Format.printf "@.== %s ==@." title

let () =
  section "An MDL reachability query";
  let conn =
    Parse.query ~goal:"G"
      "P(x) <- U(x). P(x) <- R(x,y), P(y). G <- P(x), S(x)."
  in
  Format.printf "%a@." Datalog.pp_query conn;

  section "Forward map (Prop. 3): an NTA capturing its approximations";
  let nta, k = Forward.approximations_nta conn in
  Format.printf "%a, code width k = %d@." Nta.pp nta k;
  (match Nta.witness nta with
  | Some w ->
      let i = Code.decode w in
      Format.printf "a witness code decodes to: %a@." Instance.pp i;
      Format.printf "  ... which satisfies the query: %b@."
        (Dl_engine.holds_boolean conn i)
  | None -> Format.printf "(empty language?)@.");

  section "Backward map over atomic views: a Datalog rewriting";
  let views =
    [ View.atomic "VR" "R" 2; View.atomic "VU" "U" 1; View.atomic "VS" "S" 1 ]
  in
  let rw = Md_rewrite.forward_backward_atomic conn views in
  Format.printf "rewriting has %d rules over %a@."
    (List.length rw.Datalog.program)
    Schema.pp (View.view_schema views);
  let schema = Schema.of_list [ ("R", 2); ("U", 1); ("S", 1) ] in
  let insts = Md_rewrite.random_instances ~n:60 ~size:12 ~seed:99 schema in
  Format.printf "verified against the query on %d random instances: %b@."
    (List.length insts)
    (Md_rewrite.verify_boolean conn rw views insts);

  section "Theorem 5: CQ queries over a recursive (Datalog) view";
  let tc_view =
    View.datalog "VT"
      (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).")
  in
  let cases =
    [
      ("∃ an edge", Parse.cq "q() <- E(x,y)");
      ("∃ a 2-path", Parse.cq "q() <- E(x,y), E(y,z)");
      ("∃ a self-loop", Parse.cq "q() <- E(x,x)");
      ("∃ a 2-cycle", Parse.cq "q() <- E(x,y), E(y,x)");
    ]
  in
  List.iter
    (fun (name, q) ->
      Format.printf "  %-14s monotonically determined by TC: %b@." name
        (Md_decide.cq_query q [ tc_view ]))
    cases;

  section "Prop. 8 rewriting for a determined case";
  let q2 = Parse.cq "q() <- E(x,y), E(y,z)" in
  let rw8 = Md_rewrite.prop8_cq q2 [ tc_view ] in
  Format.printf "V(Q) = %a@." Cq.pp rw8;
  let insts_e =
    Md_rewrite.random_instances ~n:40 ~size:8 ~seed:5 (Schema.of_list [ ("E", 2) ])
  in
  let ok =
    List.for_all
      (fun i ->
        Cq.holds_boolean q2 i
        = Cq.holds_boolean rw8 (View.image [ tc_view ] i))
      insts_e
  in
  Format.printf "verified on %d random instances: %b@." (List.length insts_e) ok;
  Format.printf "@.done.@."
