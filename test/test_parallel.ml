(* Tests for the domain pool (Dl_parallel): the domain-count
   configuration, [run_tasks] — every task once, the bypass for short
   lists, exceptions held until the batch ends — and pool resizing; plus
   the delta-start entry of every semi-naive engine against the naive
   oracle. *)

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

(* every test below pins its own domain count, so suite order cannot
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

let test_run_tasks () =
  List.iter
    (fun d ->
      with_domains d @@ fun () ->
      let runs = Array.init 100 (fun _ -> Atomic.make 0) in
      Dl_parallel.run_tasks
        (List.init 100 (fun i () -> Atomic.incr runs.(i)));
      check_bool
        (Printf.sprintf "each task once at %d domains" d)
        true
        (Array.for_all (fun r -> Atomic.get r = 1) runs);
      (* the raising task comes first, so a worker meets it before the
         others have run *)
      let ran = Atomic.make 0 in
      let tasks =
        (fun () -> raise Exit) :: List.init 49 (fun _ () -> Atomic.incr ran)
      in
      (match Dl_parallel.run_tasks tasks with
      | () -> Alcotest.fail "the task's exception was lost"
      | exception Exit -> ());
      check_int
        (Printf.sprintf "others ran before the raise at %d domains" d)
        49 (Atomic.get ran))
    [ 1; 2; 4 ];
  with_domains 4 @@ fun () ->
  Dl_parallel.run_tasks [];
  let self = Domain.self () and on = ref None in
  Dl_parallel.run_tasks [ (fun () -> on := Some (Domain.self ())) ];
  check_bool "one task runs on the calling domain" true (!on = Some self)

let test_pool_resize () =
  (* shrink and regrow the persistent pool; every task evaluates its own
     instance, so no index cache is shared between domains *)
  let expect = List.length (Dl_engine.eval tc (chain 12)) in
  List.iter
    (fun d ->
      with_domains d @@ fun () ->
      check_int (Printf.sprintf "pool of %d" d) d (Dl_parallel.domains ());
      let got = Array.make 8 0 in
      Dl_parallel.run_tasks
        (List.init 8 (fun k () ->
             got.(k) <-
               List.length (Dl_engine.eval ~strategy:Dl_engine.Vm tc (chain 12))));
      check_bool
        (Printf.sprintf "answers with a pool of %d" d)
        true
        (Array.for_all (( = ) expect) got))
    [ 4; 2; 5; 1; 3 ]

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
      agree (run Dl_engine.Vm))

let suite =
  [
    Alcotest.test_case "domain-count config" `Quick test_config;
    Alcotest.test_case "run_tasks" `Quick test_run_tasks;
    Alcotest.test_case "pool resize" `Quick test_pool_resize;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_fixpoint_delta_differential ]
  @ [
      (* runs last: join the pool so the remaining suites don't pay
         multi-domain GC synchronization for idle workers *)
      Alcotest.test_case "pool shutdown" `Quick (fun () ->
          Dl_parallel.set_domains 1;
          Dl_parallel.shutdown ();
          Alcotest.(check int) "back to one domain" 1 (Dl_parallel.domains ()));
    ]
