(* Tests for the semi-naive round loop's derived-fact store (Dl_semi over
   Dl_store): a frozen base instance plus an append-only tail per head
   relation.  Unit checks on the cases where base and tail meet (IDB
   facts in the input, probes of [old] that must skip the current batch,
   early stops, bodiless rules), and properties against the naive
   oracle for the delta entry and the order of [eval]'s answers. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let c = Const.named
let fact rel args = Fact.make rel (List.map c args)

let chain n =
  Instance.of_list
    (List.init n (fun i ->
         fact "E" [ Printf.sprintf "a%d" i; Printf.sprintf "a%d" (i + 1) ]))

let naive p i = Dl_eval.fixpoint_naive p i

let same_as_naive name p i =
  check_bool name true (Instance.equal (Dl_semi.fixpoint p i) (naive p i))

let tc =
  Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

(* The input holds facts of the recursive IDB: some derivable (the tail
   must not keep them again), some not (rounds must probe them from the
   base behind the tail). *)
let test_idb_in_input () =
  let extra =
    [
      fact "T" [ "a1"; "a3" ]; fact "T" [ "a8"; "b0" ]; fact "T" [ "b0"; "b1" ];
    ]
  in
  let i = Instance.union (chain 8) (Instance.of_list extra) in
  same_as_naive "fixpoint" tc.program i;
  let goal = Instance.tuples (naive tc.program i) "T" in
  check_bool "eval: every T, in Instance.tuples order" true
    (Dl_semi.eval tc i = goal);
  (* T(a0,b0) is derived only through the base fact T(a8,b0) *)
  check_bool "holds through a base fact" true
    (Dl_semi.holds tc i [| c "a0"; c "b0" |]);
  check_bool "rejects" false (Dl_semi.holds tc i [| c "a0"; c "b1" |]);
  let derived =
    snd (Dl_semi.fixpoint_delta tc.program ~old:Instance.empty ~delta:i)
  in
  check_bool "no base fact derived again" true
    (List.for_all (fun f -> not (Instance.mem f derived)) extra)

(* Both body atoms read the IDB: the unit whose delta is the second atom
   reads the first from [old], which must leave out the current batch,
   and the other unit reads the second from [full]. *)
let test_nonlinear () =
  let p =
    Parse.program "T(x,y) <- E(x,y). T(x,y) <- T(x,z), T(z,y)."
  in
  List.iter
    (fun n -> same_as_naive (Printf.sprintf "chain %d" n) p (chain n))
    [ 1; 2; 5; 17; 40 ];
  let cyc = Instance.add (fact "E" [ "a9"; "a0" ]) (chain 9) in
  same_as_naive "cycle" p cyc;
  (* a constant in the delta atom makes its step an index probe of the
     current batch *)
  let q =
    Parse.query ~goal:"R"
      "R(y) <- T('a0',y). T(x,y) <- E(x,y). T(x,y) <- T(x,z), T(z,y)."
  in
  check_int "delta probe on a constant" 17
    (List.length (Dl_semi.eval q (chain 17)))

(* The shape of a magic-sets transform: [M] has a base fact and grows
   one tuple a round, and [T]'s recursive unit first probes [M] as
   [old] rounds later, when [M]'s tail already holds earlier batches.
   Its buckets are built then, and must list the current batch first
   like the buckets appended at later round boundaries. *)
let test_late_buckets () =
  let p =
    Parse.program
      "T(x,y) <- M(x,y), E(x,y). M(z,y) <- M(x,y), E(x,z). T(x,y) <- \
       M(x,y), E(x,z), T(z,y)."
  in
  List.iter
    (fun n ->
      let i =
        Instance.add (fact "M" [ "a0"; Printf.sprintf "a%d" n ]) (chain n)
      in
      same_as_naive (Printf.sprintf "chain %d" n) p i;
      check_bool
        (Printf.sprintf "holds on chain %d" n)
        true
        (Dl_semi.holds (Datalog.make p "T") i
           [| c "a0"; c (Printf.sprintf "a%d" n) |]))
    [ 1; 3; 6 ]

(* [fixpoint ~stop] ends inside the round that derives the accepted fact
   and keeps what that round derived up to it. *)
let test_stop_keeps_round () =
  let i = chain 6 in
  let target = fact "T" [ "a0"; "a3" ] in
  let stopped = Dl_semi.fixpoint ~stop:(Fact.equal target) tc.program i in
  let full = naive tc.program i in
  check_bool "keeps the accepted fact" true (Instance.mem target stopped);
  check_bool "within the fixpoint" true (Instance.subset stopped full);
  check_bool "keeps the first round" true
    (List.for_all
       (fun (f : Fact.t) -> Instance.mem (Fact.of_array "T" f.args) stopped)
       (Instance.facts i));
  check_bool "stops before the end" true
    (Instance.size stopped < Instance.size full);
  let cold = Instance.of_list (Instance.facts stopped) in
  check_bool "size and fingerprint of a cold rebuild" true
    (Instance.size stopped = Instance.size cold
    && Instance.fingerprint stopped = Instance.fingerprint cold)

let test_bodiless_and_input_goals () =
  let g = Datalog.rule (Cq.atom "G" []) [] in
  let h = Parse.rule "H() <- G(), E(x,y)." in
  let q = Datalog.make [ g; h ] "H" in
  check_bool "holds_boolean via a bodiless rule" true
    (Dl_semi.holds_boolean q (chain 1));
  check_bool "holds via a bodiless rule" true (Dl_semi.holds q (chain 1) [||]);
  check_bool "no edge, no H" false (Dl_semi.holds_boolean q Instance.empty);
  let qg = Datalog.make [ g; h ] "G" in
  check_bool "the bodiless head is a goal fact" true
    (Dl_semi.holds_boolean qg Instance.empty);
  check_bool "holds on the bodiless head" true
    (Dl_semi.holds qg Instance.empty [||]);
  check_int "eval sees it" 1 (List.length (Dl_semi.eval qg Instance.empty));
  (* goal facts already in the input, not derivable from it *)
  let i = Instance.add (fact "T" [ "z0"; "z1" ]) (chain 2) in
  check_bool "holds an input goal fact" true
    (Dl_semi.holds tc i [| c "z0"; c "z1" |]);
  check_bool "holds_boolean on input goal facts only" true
    (Dl_semi.holds_boolean tc (Instance.of_list [ fact "T" [ "z0"; "z1" ] ]))

let arb3 =
  QCheck.make
    ~print:(fun (p, i, d) ->
      Fmt.str "%a@.on %a@.plus %a" Datalog.pp_program p Instance.pp i
        Instance.pp d)
    QCheck.Gen.(triple Test_datalog.dg_program Test_datalog.dg_instance
                  Test_datalog.dg_instance)

let prop_delta_derived =
  QCheck.Test.make ~name:"fixpoint_delta derived = naive full minus start"
    ~count:120 arb3 (fun (p, i, d) ->
      let old = Dl_semi.fixpoint p i in
      let full, derived = Dl_semi.fixpoint_delta p ~old ~delta:d in
      let start = Instance.union old d in
      let expect = naive p start in
      Instance.equal full expect
      && Instance.equal derived (Instance.diff expect start))

let prop_eval_order =
  QCheck.Test.make ~name:"eval lists tuples in Instance.tuples order"
    ~count:120 Test_datalog.dg_pair_arb (fun (p, i) ->
      List.for_all
        (fun (goal, _) ->
          Dl_semi.eval (Datalog.make p goal) i
          = Instance.tuples (naive p i) goal)
        Test_datalog.dg_idbs)

let suite =
  [
    Alcotest.test_case "IDB facts in the input" `Quick test_idb_in_input;
    Alcotest.test_case "nonlinear rule, old and full differ" `Quick
      test_nonlinear;
    Alcotest.test_case "buckets first built in a late round" `Quick
      test_late_buckets;
    Alcotest.test_case "stop keeps the stopping round" `Quick
      test_stop_keeps_round;
    Alcotest.test_case "bodiless rules and input goal facts" `Quick
      test_bodiless_and_input_goals;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_delta_derived; prop_eval_order ]
