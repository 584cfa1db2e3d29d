(* Tests for the bytecode VM (Dl_vm), the semi-naive loop over it
   (Dl_semi) and its strategy routing (Dl_engine.Vm): unit checks on
   closure workloads and edge-shaped rules (empty bodies, constants,
   repeated variables), golden disassemblies pinning the compiled opcode
   layout, mid-round cancellation, concurrent compilation from several
   domains, the head- and body-seeded runs behind Dl_incr's
   Backward/Forward search, and differential agreement with the naive
   oracle on random program/instance pairs. *)

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

(* all pairs over [n] constants: dense joins with quadratic fan-out *)
let dense n =
  Instance.of_list
    (List.concat
       (List.init n (fun i ->
            List.init n (fun j ->
                Fact.make "E"
                  [ c (Printf.sprintf "d%d" i); c (Printf.sprintf "d%d" j) ]))))

let test_tc_chain () =
  let i = chain 24 in
  check_int "full closure" (24 * 25 / 2) (List.length (Dl_semi.eval tc i));
  check_bool "holds" true (Dl_semi.holds tc i [| c "a0"; c "a24" |]);
  check_bool "rejects" false (Dl_semi.holds tc i [| c "a24"; c "a0" |]);
  check_bool "boolean" true (Dl_semi.holds_boolean tc i);
  check_bool "boolean on empty" false (Dl_semi.holds_boolean tc Instance.empty);
  check_bool "fixpoint = naive fixpoint" true
    (Instance.equal (Dl_semi.fixpoint tc.program i) (Dl_eval.fixpoint_naive tc.program i))

let test_rule_shapes () =
  (* empty body: the zero-step program emits its head once and halts *)
  let p0 = [ Datalog.rule (Cq.atom "G" []) [] ] in
  check_bool "empty body derives" true
    (Dl_semi.holds_boolean (Datalog.make p0 "G") Instance.empty);
  (* ... under every strategy: the first round is not skipped for an
     empty input *)
  List.iter
    (fun s ->
      check_bool
        ("empty body derives under " ^ Dl_engine.to_string s)
        true
        (Instance.cardinal (Dl_engine.fixpoint ~strategy:s p0 Instance.empty) "G"
        = 1))
    Dl_engine.all;
  (* constants in the body: check-const and constant-keyed probes *)
  let qc = Parse.query ~goal:"P" "P(x) <- E(x,'a2')." in
  let i = chain 5 in
  check_int "constant probe" 1 (List.length (Dl_semi.eval qc i));
  check_bool "constant probe tuple" true (Dl_semi.holds qc i [| c "a1" |]);
  (* repeated variable inside one atom: bind-then-check in the same step *)
  let ql = Parse.query ~goal:"L" "L(x) <- E(x,x)." in
  check_int "no loops in a chain" 0 (List.length (Dl_semi.eval ql i));
  check_int "loops in dense" 3 (List.length (Dl_semi.eval ql (dense 3)))

let test_engine_facade () =
  let i = chain 4 in
  check_bool "facade holds" true
    (Dl_engine.holds ~strategy:Dl_engine.Vm tc i [| c "a0"; c "a4" |]);
  check_int "facade eval" 10
    (List.length (Dl_engine.eval ~strategy:Dl_engine.Vm tc i));
  check_bool "vm is listed" true (List.mem Dl_engine.Vm Dl_engine.all);
  check_bool "of_string" true (Dl_engine.of_string "vm" = Some Dl_engine.Vm);
  check_bool "to_string" true
    (String.equal (Dl_engine.to_string Dl_engine.Vm) "vm");
  check_bool "three strategies" true (List.length Dl_engine.all = 3);
  check_bool "no parallel strategy" true
    (List.for_all
       (fun n -> Dl_engine.of_string n = None)
       [ "parallel"; "indexed" ])

(* --- golden disassemblies ------------------------------------------- *)
(* One grid-shaped and one diamond-shaped rule, pinning the plan (atom
   order, probe positions) and the opcode layout (offsets, fail targets).
   A deliberate compiler change updates these strings; an accidental one
   fails here before it can perturb every benchmark. *)

let disasm p = Fmt.str "%a" Dl_vm.pp_program p

let grid_rule = [ Parse.rule "D(x,y) <- H(x,z), V(z,w), D(w,y)" ]

let grid_naive_golden =
  "program D/2: 3 steps, 4 regs\n\
  \  head D(r0,r3)\n\
  \  0000  scan           step=0 rel=H src=full\n\
  \  0003  cancel-probe\n\
  \  0004  next           step=0 arity=2 fail=@0060\n\
  \  0008  bind-slot      step=0 pos=0 r0\n\
  \  0012  bind-slot      step=0 pos=1 r1\n\
  \  0016  index-probe    step=1 rel=V src=full bound=[0=r1]\n\
  \  0023  cancel-probe\n\
  \  0024  next           step=1 arity=2 fail=@0003\n\
  \  0028  check-slot-eq  step=1 pos=0 r1 fail=@0023\n\
  \  0033  bind-slot      step=1 pos=1 r2\n\
  \  0037  index-probe    step=2 rel=D src=full bound=[0=r2]\n\
  \  0044  cancel-probe\n\
  \  0045  next           step=2 arity=2 fail=@0023\n\
  \  0049  check-slot-eq  step=2 pos=0 r2 fail=@0044\n\
  \  0054  bind-slot      step=2 pos=1 r3\n\
  \  0058  emit-head      resume=@0044\n\
  \  0060  halt\n"

let grid_semi2_golden =
  "program D/2: 3 steps, 4 regs\n\
  \  head D(r0,r3)\n\
  \  0000  scan           step=0 rel=D src=delta\n\
  \  0003  cancel-probe\n\
  \  0004  next           step=0 arity=2 fail=@0060\n\
  \  0008  bind-slot      step=0 pos=0 r2\n\
  \  0012  bind-slot      step=0 pos=1 r3\n\
  \  0016  index-probe    step=1 rel=V src=old bound=[1=r2]\n\
  \  0023  cancel-probe\n\
  \  0024  next           step=1 arity=2 fail=@0003\n\
  \  0028  bind-slot      step=1 pos=0 r1\n\
  \  0032  check-slot-eq  step=1 pos=1 r2 fail=@0023\n\
  \  0037  index-probe    step=2 rel=H src=old bound=[1=r1]\n\
  \  0044  cancel-probe\n\
  \  0045  next           step=2 arity=2 fail=@0023\n\
  \  0049  bind-slot      step=2 pos=0 r0\n\
  \  0053  check-slot-eq  step=2 pos=1 r1 fail=@0044\n\
  \  0058  emit-head      resume=@0044\n\
  \  0060  halt\n"

let diamond_rule =
  [ Parse.rule "W(x) <- A(x,y), B(y,v), C(x,z), D(z,v), W(v)" ]

let diamond_naive_golden =
  "program W/1: 5 steps, 4 regs\n\
  \  head W(r0)\n\
  \  0000  scan           step=0 rel=A src=full\n\
  \  0003  cancel-probe\n\
  \  0004  next           step=0 arity=2 fail=@0102\n\
  \  0008  bind-slot      step=0 pos=0 r0\n\
  \  0012  bind-slot      step=0 pos=1 r1\n\
  \  0016  index-probe    step=1 rel=B src=full bound=[0=r1]\n\
  \  0023  cancel-probe\n\
  \  0024  next           step=1 arity=2 fail=@0003\n\
  \  0028  check-slot-eq  step=1 pos=0 r1 fail=@0023\n\
  \  0033  bind-slot      step=1 pos=1 r2\n\
  \  0037  index-probe    step=2 rel=C src=full bound=[0=r0]\n\
  \  0044  cancel-probe\n\
  \  0045  next           step=2 arity=2 fail=@0023\n\
  \  0049  check-slot-eq  step=2 pos=0 r0 fail=@0044\n\
  \  0054  bind-slot      step=2 pos=1 r3\n\
  \  0058  index-probe    step=3 rel=D src=full bound=[0=r3; 1=r2]\n\
  \  0068  cancel-probe\n\
  \  0069  next           step=3 arity=2 fail=@0044\n\
  \  0073  check-slot-eq  step=3 pos=0 r3 fail=@0068\n\
  \  0078  check-slot-eq  step=3 pos=1 r2 fail=@0068\n\
  \  0083  index-probe    step=4 rel=W src=full bound=[0=r2]\n\
  \  0090  cancel-probe\n\
  \  0091  next           step=4 arity=1 fail=@0068\n\
  \  0095  check-slot-eq  step=4 pos=0 r2 fail=@0090\n\
  \  0100  emit-head      resume=@0090\n\
  \  0102  halt\n"

let test_golden_disassembly () =
  let gp = List.hd (Dl_vm.compile grid_rule) in
  let dp = List.hd (Dl_vm.compile diamond_rule) in
  Alcotest.(check string)
    "grid naive" grid_naive_golden
    (disasm (Dl_vm.naive_program gp.source));
  Alcotest.(check string)
    "grid delta on D" grid_semi2_golden
    (disasm gp.Dl_vm.semi.(2));
  Alcotest.(check string)
    "diamond naive" diamond_naive_golden
    (disasm (Dl_vm.naive_program dp.source))

(* --- cancellation ---------------------------------------------------- *)

let join3 =
  Parse.query ~goal:"J" "J(x,y) <- E(x,u), E(u,v), E(v,y)."

let test_cancel_mid_enumeration () =
  (* an already-expired deadline must stop [exec] after the fuel window —
     a strict prefix of the enumeration — proving the probe sits inside
     the cursor loops, not at the boundaries *)
  let i = dense 20 in
  let prog = Dl_vm.naive_program (List.hd (Dl_vm.compile join3.program)).source in
  List.iter (fun r -> ignore (Instance.index_id i r)) [ Symtab.intern "E" ];
  let total = ref 0 in
  Dl_vm.exec prog ~full:i (fun _ ->
      incr total;
      true);
  check_bool "enumeration is long" true (!total > 1000);
  let cancel = Dl_cancel.with_deadline_ms 1 in
  Unix.sleepf 0.003;
  let emitted = ref 0 in
  let raised =
    try
      Dl_vm.exec prog ~full:i ~cancel (fun _ ->
          incr emitted;
          true);
      false
    with Dl_cancel.Cancelled -> true
  in
  check_bool "cancelled" true raised;
  check_bool "stopped mid-enumeration" true (!emitted < !total)

let test_cancel_fixpoint_deadline () =
  (* a 1 ms deadline interrupts a fixpoint whose first round alone is far
     longer than the deadline *)
  let i = dense 28 in
  let cancel = Dl_cancel.with_deadline_ms 1 in
  let raised =
    try
      ignore (Dl_semi.fixpoint ~cancel join3.program i);
      false
    with Dl_cancel.Cancelled -> true
  in
  check_bool "deadline fired" true raised

(* --- concurrent compilation ------------------------------------------ *)

let test_concurrent_compile () =
  (* several domains re-entering the mutex-guarded compile cache on the
     same (structurally equal) program must all succeed and agree; a
     second compile of the same value returns the cached bytecode *)
  let mk () =
    Parse.program "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
  in
  let i = chain 8 in
  let expect = List.length (Dl_semi.eval tc i) in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let p = mk () in
            let rps = Dl_vm.compile p in
            let cached = Dl_vm.compile p == rps in
            let nans = List.length (Dl_semi.eval (Datalog.make p "T") i) in
            (List.length rps, cached, nans)))
  in
  List.iter
    (fun d ->
      let nprogs, cached, nans = Domain.join d in
      check_int "bytecode programs" 2 nprogs;
      check_bool "second compile hits the cache" true cached;
      check_int "answers agree" expect nans)
    doms

let test_compile_cache () =
  (* a structurally equal program built afresh shares the compilation
     of the first one (the fingerprint lookup behind the physical one) *)
  let text = "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)." in
  let first = Dl_vm.compile (Parse.program text) in
  check_bool "fresh equal program shares the bytecode" true
    (Dl_vm.compile (Parse.program text) == first);
  check_bool "a different program does not" true
    (Dl_vm.compile (Parse.program "T(x,y) <- E(y,x).") != first)

(* --- seeded runs ------------------------------------------------------ *)
(* A match is identified by its instantiated body: every variable occurs
   in the body, so the body facts fix the whole binding. *)

let vm_matches run =
  let out = ref [] in
  run (fun (cr : Dl_plan.crule) regs ->
      let body = Array.map (fun a -> Dl_vm.atom_fact a regs) cr.cbody in
      out := Array.to_list body :: !out;
      true);
  List.sort (List.compare Fact.compare) !out

let run_head (r : Datalog.rule) (f : Fact.t) i k =
  let rp = List.hd (Dl_vm.compile [ r ]) in
  Dl_vm.run_head (Dl_vm.head_program rp.source) f.args i (k rp.source)

let run_body (r : Datalog.rule) j (f : Fact.t) i k =
  let rp = List.hd (Dl_vm.compile [ r ]) in
  Dl_vm.run_body rp j f.args i (k rp.source)

(* The naive oracle's unseeded matches: every binding of the body's
   variables, as the goal tuples of [M(vars) <- body], each paired with
   its instantiated head and body. *)
let oracle_matches (r : Datalog.rule) i =
  let vars =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (a : Cq.atom) ->
           List.filter_map (function Cq.Var v -> Some v | Cq.Cst _ -> None) a.args)
         r.body)
  in
  let m = Cq.atom "M%" (List.map (fun v -> Cq.Var v) vars) in
  let inst tup (a : Cq.atom) =
    let env = List.combine vars (Array.to_list tup) in
    Fact.make a.rel
      (List.map (function Cq.Cst c -> c | Cq.Var v -> List.assoc v env) a.args)
  in
  List.map
    (fun tup -> (inst tup r.head, List.map (inst tup) r.body))
    (Dl_eval.eval_naive (Datalog.make [ Datalog.rule m r.body ] "M%") i)

let sorted_bodies ms = List.sort (List.compare Fact.compare) (List.map snd ms)

let seeded_arb =
  QCheck.make
    ~print:(fun (r, i, f) ->
      Fmt.str "%a@.on %a@.seed %a" Datalog.pp_rule r Instance.pp i Fact.pp f)
    QCheck.Gen.(
      triple Test_datalog.dg_rule Test_datalog.dg_instance Test_datalog.dg_fact)

let prop_seeded_runs =
  QCheck.Test.make ~name:"seeded runs = naive matches" ~count:120 seeded_arb
    (fun (r, i, f) ->
      (* the random fact joins the instance, so a body seed of its
         relation always has something to meet *)
      let i = Instance.add f i in
      let all = oracle_matches r i in
      let head_ok h =
        vm_matches (run_head r h i)
        = sorted_bodies (List.filter (fun (h', _) -> Fact.equal h h') all)
      in
      let heads =
        (if String.equal f.rel r.head.rel then [ f ] else []) @ List.map fst all
      in
      let body_ok j (a : Cq.atom) =
        List.for_all
          (fun t ->
            let t = Fact.make a.rel (Array.to_list t) in
            vm_matches (run_body r j t i)
            = sorted_bodies
                (List.filter (fun (_, b) -> Fact.equal (List.nth b j) t) all))
          (Instance.tuples i a.rel)
      in
      List.for_all head_ok heads
      && List.for_all Fun.id (List.mapi body_ok r.body))

let test_seed_clash () =
  let i = Parse.instance "E(a,b). E(a,c). E(b,b)." in
  let count run = List.length (vm_matches run) in
  let fact rel args = Fact.make rel (List.map c args) in
  (* a repeated head variable the seed gives two values *)
  let r = Parse.rule "R(x,x) <- E(x,y)" in
  let head args = count (run_head r (fact "R" args) i) in
  check_int "head clash: repeated variable" 0 (head [ "a"; "b" ]);
  check_int "head seed without clash" 2 (head [ "a"; "a" ]);
  (* a body seed contradicting a constant or a repeated variable of its
     atom (head constants are rejected by Datalog.rule) *)
  let body rule args = count (run_body (Parse.rule rule) 0 (fact "E" args) i) in
  let rc = "S(x) <- E(x,'c'), E(x,y)" and rl = "L(x) <- E(x,x)" in
  check_int "body clash: constant" 0 (body rc [ "a"; "b" ]);
  check_int "body seed on the constant" 2 (body rc [ "a"; "c" ]);
  check_int "body clash: repeated variable" 0 (body rl [ "a"; "b" ]);
  check_int "body seed on a loop" 1 (body rl [ "b"; "b" ])

(* --- differential properties ----------------------------------------- *)
(* vm = naive on the shared random program/instance generator, one suite
   per facade entry point, mirroring the magic suites *)

let norm ts = List.sort compare (List.map Array.to_list ts)

let prop_vm_eval_differential =
  QCheck.Test.make ~name:"vm eval = naive eval" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          norm (Dl_engine.eval ~strategy:Dl_engine.Vm q i)
          = norm (Dl_engine.eval ~strategy:Dl_engine.Naive q i))
        Test_datalog.dg_idbs)

let prop_vm_boolean_differential =
  QCheck.Test.make ~name:"vm holds_boolean = naive" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, _) ->
          let q = Datalog.make p goal in
          Dl_engine.holds_boolean ~strategy:Dl_engine.Vm q i
          = Dl_engine.holds_boolean ~strategy:Dl_engine.Naive q i)
        Test_datalog.dg_idbs)

let prop_vm_holds_differential =
  QCheck.Test.make ~name:"vm holds = naive membership" ~count:120
    Test_datalog.dg_pair_arb (fun (p, i) ->
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
              Dl_engine.holds ~strategy:Dl_engine.Vm q i tup
              = Dl_engine.holds ~strategy:Dl_engine.Naive q i tup)
            tuples)
        Test_datalog.dg_idbs)

let suite =
  [
    Alcotest.test_case "transitive closure" `Quick test_tc_chain;
    Alcotest.test_case "rule shapes" `Quick test_rule_shapes;
    Alcotest.test_case "engine facade routing" `Quick test_engine_facade;
    Alcotest.test_case "golden disassembly" `Quick test_golden_disassembly;
    Alcotest.test_case "cancel mid-enumeration" `Quick
      test_cancel_mid_enumeration;
    Alcotest.test_case "cancel fixpoint deadline" `Quick
      test_cancel_fixpoint_deadline;
    Alcotest.test_case "concurrent compile" `Quick test_concurrent_compile;
    Alcotest.test_case "compile cache" `Quick test_compile_cache;
    Alcotest.test_case "seed clash" `Quick test_seed_clash;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_vm_eval_differential;
        prop_vm_boolean_differential;
        prop_vm_holds_differential;
        prop_seeded_runs;
      ]
  @ [
      Alcotest.test_case "pool shutdown" `Quick (fun () ->
          Dl_parallel.set_domains 1;
          Dl_parallel.shutdown ());
    ]
