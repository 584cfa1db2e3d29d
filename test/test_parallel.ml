(* Tests for the domain-sharded evaluator (Dl_parallel) and its strategy
   routing (Dl_engine.Parallel): unit checks of the pool configuration and
   early stop, differential agreement with the naive oracle on random
   program/instance pairs under a multi-domain pool, and the determinism
   property — the fixpoint instance is identical across domain counts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let c = Const.named

let tc =
  Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

let chain n =
  Instance.of_list
    (List.init n (fun i ->
         Fact.make "E"
           [ c (Printf.sprintf "a%d" i); c (Printf.sprintf "a%d" (i + 1)) ]))

(* every property below pins its own domain count, so suite order cannot
   change what is tested; [with_domains] restores a 1-sized pool after *)
let with_domains n f =
  Dl_parallel.set_domains n;
  Fun.protect ~finally:(fun () -> Dl_parallel.set_domains 1) f

let test_config () =
  Dl_parallel.set_domains 3;
  check_int "set_domains wins" 3 (Dl_parallel.domains ());
  Dl_parallel.set_domains 0;
  check_int "clamped below at 1" 1 (Dl_parallel.domains ());
  Dl_parallel.set_domains 9999;
  check_int "clamped above at 64" 64 (Dl_parallel.domains ());
  Dl_parallel.set_domains 1

let test_tc_chain () =
  with_domains 4 @@ fun () ->
  let i = chain 24 in
  check_int "full closure" (24 * 25 / 2)
    (List.length (Dl_parallel.eval tc i));
  check_bool "holds" true (Dl_parallel.holds tc i [| c "a0"; c "a24" |]);
  check_bool "rejects" false (Dl_parallel.holds tc i [| c "a24"; c "a0" |]);
  check_bool "boolean" true (Dl_parallel.holds_boolean tc i);
  check_bool "boolean on empty" false
    (Dl_parallel.holds_boolean tc Instance.empty)

let test_early_stop_under_sharding () =
  (* the goal is derivable in round 1; whichever worker finds it first
     sets the flag, and the barrier must still report it *)
  with_domains 4 @@ fun () ->
  let i = chain 64 in
  check_bool "adjacent pair found in first round" true
    (Dl_parallel.holds tc i [| c "a3"; c "a4" |]);
  let q0 = Parse.query ~goal:"G" "G <- E(x,y)." in
  check_bool "boolean goal, wide first round" true
    (Dl_parallel.holds_boolean q0 i)

let test_pool_resize () =
  (* exercise shrink and regrow of the persistent pool *)
  let i = chain 12 in
  let expect = List.length (Dl_eval.eval tc i) in
  List.iter
    (fun d ->
      Dl_parallel.set_domains d;
      check_int
        (Printf.sprintf "pool of %d" d)
        expect
        (List.length (Dl_parallel.eval tc i)))
    [ 4; 2; 5; 1; 3 ];
  Dl_parallel.set_domains 1

let test_engine_facade () =
  with_domains 2 @@ fun () ->
  let i = chain 4 in
  check_bool "facade holds" true
    (Dl_engine.holds ~strategy:Dl_engine.Parallel tc i [| c "a0"; c "a4" |]);
  check_int "facade eval" 10
    (List.length (Dl_engine.eval ~strategy:Dl_engine.Parallel tc i));
  check_bool "parallel is listed" true
    (List.mem Dl_engine.Parallel Dl_engine.all);
  check_bool "of_string" true
    (Dl_engine.of_string "parallel" = Some Dl_engine.Parallel)

(* differential properties against the naive scan-based oracle, on the
   same random program/instance generator as the indexed and magic
   suites, with a 3-domain pool so the sharded path really runs *)

let norm ts = List.sort compare (List.map Array.to_list ts)

let prop_parallel_eval_differential =
  QCheck.Test.make ~name:"parallel eval = naive eval" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      with_domains 3 @@ fun () ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          norm (Dl_engine.eval ~strategy:Dl_engine.Parallel q i)
          = norm (Dl_engine.eval ~strategy:Dl_engine.Naive q i))
        Test_datalog.dg_idbs)

let prop_parallel_boolean_differential =
  QCheck.Test.make ~name:"parallel holds_boolean = naive" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      with_domains 3 @@ fun () ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          Dl_engine.holds_boolean ~strategy:Dl_engine.Parallel q i
          = Dl_engine.holds_boolean ~strategy:Dl_engine.Naive q i)
        Test_datalog.dg_idbs)

let prop_parallel_holds_differential =
  QCheck.Test.make ~name:"parallel holds = naive membership" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      with_domains 3 @@ fun () ->
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
              Dl_engine.holds ~strategy:Dl_engine.Parallel q i tup
              = Dl_engine.holds ~strategy:Dl_engine.Naive q i tup)
            tuples)
        Test_datalog.dg_idbs)

let prop_parallel_deterministic =
  (* two parallel runs with different domain counts produce the same
     fixpoint instance (not just the same goal tuples) *)
  QCheck.Test.make ~name:"parallel fixpoint deterministic across domains"
    ~count:120 Test_datalog.dg_pair_arb (fun (p, i) ->
      let fp d =
        Dl_parallel.set_domains d;
        Dl_parallel.fixpoint p i
      in
      let f2 = fp 2 and f4 = fp 4 in
      Dl_parallel.set_domains 1;
      Instance.equal f2 f4 && Instance.equal f2 (Dl_eval.fixpoint p i))

(* The delta-start entry under every semi-naive engine: resume from the
   naive fixpoint with a random delta (IDB facts included, as the
   maintenance layer's seeds are); [(full, derived)] must equal Naive's,
   which recomputes from the union. *)
let prop_fixpoint_delta_differential =
  let delta_arb =
    QCheck.make ~print:(Fmt.str "%a" Instance.pp) Test_datalog.dg_instance
  in
  QCheck.Test.make ~name:"fixpoint_delta = naive under every engine"
    ~count:120
    (QCheck.pair Test_datalog.dg_pair_arb delta_arb)
    (fun ((p, i), delta) ->
      let old = Dl_eval.fixpoint_naive p i in
      let run s = Dl_engine.fixpoint_delta ~strategy:s p ~old ~delta in
      let want_full, want_derived = run Dl_engine.Naive in
      let agree (full, derived) =
        Instance.equal full want_full && Instance.equal derived want_derived
      in
      let parallel d =
        Dl_parallel.set_domains d;
        Fun.protect
          ~finally:(fun () -> Dl_parallel.set_domains 1)
          (fun () -> run Dl_engine.Parallel)
      in
      agree (run Dl_engine.Indexed)
      && agree (run Dl_engine.Vm)
      && agree (parallel 1)
      && agree (parallel 3))

let suite =
  [
    Alcotest.test_case "domain-count config" `Quick test_config;
    Alcotest.test_case "transitive closure, 4 domains" `Quick test_tc_chain;
    Alcotest.test_case "early stop under sharding" `Quick
      test_early_stop_under_sharding;
    Alcotest.test_case "pool resize" `Quick test_pool_resize;
    Alcotest.test_case "engine facade routing" `Quick test_engine_facade;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_parallel_eval_differential;
        prop_parallel_boolean_differential;
        prop_parallel_holds_differential;
        prop_parallel_deterministic;
        prop_fixpoint_delta_differential;
      ]
  @ [
      (* runs last: join the pool so the remaining suites don't pay
         multi-domain GC synchronization for idle workers *)
      Alcotest.test_case "pool shutdown" `Quick (fun () ->
          Dl_parallel.set_domains 1;
          Dl_parallel.shutdown ();
          Alcotest.(check int) "back to one domain" 1 (Dl_parallel.domains ()));
    ]
