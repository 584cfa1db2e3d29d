(* Tests for incremental view maintenance (Dl_incr): stratification
   units, hand-picked mutation edge cases (retract-never-asserted,
   retract-base-fact-also-derivable, assert-already-derived), per-engine
   create coverage, cancellation poisoning, and the differential
   property the module exists to uphold — after EVERY mutation in a
   random assert/retract interleaving, the maintained fixpoint equals a
   cold re-evaluation from the edited base, across three workload
   families (recursive closure, non-recursive joins, random stratified
   programs). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let c = Const.named

let tc =
  Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

let e a b = Fact.make "E" [ c a; c b ]
let t' a b = Fact.make "T" [ c a; c b ]

let chain n =
  Instance.of_list
    (List.init n (fun i ->
         e (Printf.sprintf "a%d" i) (Printf.sprintf "a%d" (i + 1))))

(* join tower: two non-recursive strata over E *)
let joins =
  Parse.query ~goal:"Q" "P(x,y) <- E(x,z), E(z,y). Q(x) <- P(x,x)."

(* three levels: non-recursive base, recursive middle, non-recursive top *)
let tower =
  Parse.query ~goal:"Top"
    "B(x,y) <- E(x,y). T(x,y) <- B(x,y). T(x,y) <- B(x,z), T(z,y). Top(x) <- T(x,x)."

let cold p i = Dl_eval.fixpoint_naive p i

let agrees m =
  Instance.equal (Dl_incr.full m) (cold (Dl_incr.program m) (Dl_incr.base m))

(* --- stratification ------------------------------------------------- *)

let test_stratify () =
  check_bool "tc: one recursive stratum" true
    (Dl_incr.strata (Dl_incr.create tc.Datalog.program (chain 3))
    = [ ([ "T" ], true) ]);
  let m = Dl_incr.create joins.Datalog.program (chain 3) in
  check_bool "joins: two counting strata in order" true
    (Dl_incr.strata m = [ ([ "P" ], false); ([ "Q" ], false) ]);
  let m = Dl_incr.create tower.Datalog.program (chain 3) in
  check_bool "tower: counting, B/F, counting" true
    (Dl_incr.strata m
    = [ ([ "B" ], false); ([ "T" ], true); ([ "Top" ], false) ]);
  (* mutually recursive predicates end up in one stratum *)
  let mutual =
    Parse.query ~goal:"A" "A(x) <- U(x). A(x) <- B(x). B(x) <- A(x)."
  in
  let m = Dl_incr.create mutual.Datalog.program Instance.empty in
  check_bool "mutual recursion: one SCC" true
    (Dl_incr.strata m = [ ([ "A"; "B" ], true) ])

(* --- unit mutation semantics ---------------------------------------- *)

let test_assert_retract_tc () =
  let m = Dl_incr.create tc.Datalog.program (chain 4) in
  check_bool "create = cold" true (agrees m);
  check_int "closure size" (4 + (4 * 5 / 2)) (Instance.size (Dl_incr.full m));
  (* bridge the chain end back to the start: closure becomes total *)
  Dl_incr.assert_facts m [ e "a4" "a0" ];
  check_bool "assert maintains" true (agrees m);
  check_int "cyclic closure" (5 + (5 * 5)) (Instance.size (Dl_incr.full m));
  Dl_incr.retract_facts m [ e "a4" "a0" ];
  check_bool "retract maintains" true (agrees m);
  check_int "back to the chain" (4 + (4 * 5 / 2))
    (Instance.size (Dl_incr.full m));
  (* cut the chain in the middle: downstream closure facts disappear *)
  Dl_incr.retract_facts m [ e "a1" "a2" ];
  check_bool "cut maintains" true (agrees m);
  check_bool "severed" false (Instance.mem (t' "a0" "a4") (Dl_incr.full m));
  check_bool "left half survives" true
    (Instance.mem (t' "a0" "a1") (Dl_incr.full m))

let test_retract_never_asserted () =
  let m = Dl_incr.create tc.Datalog.program (chain 3) in
  let before = Dl_incr.full m in
  Dl_incr.retract_facts m [ e "z0" "z1"; t' "a0" "a2" ];
  check_bool "no-op retract keeps base" true
    (Instance.equal (Dl_incr.base m) (chain 3));
  check_bool "no-op retract keeps full" true
    (Instance.equal (Dl_incr.full m) before);
  check_bool "still valid" true (Dl_incr.valid m)

let test_retract_base_also_derivable () =
  (* T(a0,a2) holds both as an asserted base fact and via the chain;
     retracting the base fact must keep it derived, and retracting the
     chain support afterwards must finally remove it. *)
  let i = Instance.add (t' "a0" "a2") (chain 2) in
  let m = Dl_incr.create tc.Datalog.program i in
  Dl_incr.retract_facts m [ t' "a0" "a2" ];
  check_bool "retract maintains" true (agrees m);
  check_bool "still derived" true (Instance.mem (t' "a0" "a2") (Dl_incr.full m));
  check_bool "gone from base" false (Instance.mem (t' "a0" "a2") (Dl_incr.base m));
  Dl_incr.retract_facts m [ e "a1" "a2" ];
  check_bool "support cut maintains" true (agrees m);
  check_bool "now gone" false (Instance.mem (t' "a0" "a2") (Dl_incr.full m))

let test_assert_already_derived () =
  (* asserting a derived fact pins it into the base: it must survive
     losing its derivation support *)
  let m = Dl_incr.create tc.Datalog.program (chain 2) in
  Dl_incr.assert_facts m [ t' "a0" "a2" ];
  check_bool "assert maintains" true (agrees m);
  Dl_incr.retract_facts m [ e "a1" "a2" ];
  check_bool "support cut maintains" true (agrees m);
  check_bool "asserted fact survives" true
    (Instance.mem (t' "a0" "a2") (Dl_incr.full m))

let test_counting_strata () =
  (* diamond: P(x,y) has two derivations via the two middle nodes, so
     retracting one leg must keep P alive (count 2 -> 1), the second
     retraction kills it *)
  let i = Instance.of_list [ e "s" "l"; e "s" "r"; e "l" "t"; e "r" "t" ] in
  let m = Dl_incr.create joins.Datalog.program i in
  let p = Fact.make "P" [ c "s"; c "t" ] in
  check_bool "both legs derive" true (Instance.mem p (Dl_incr.full m));
  Dl_incr.retract_facts m [ e "l" "t" ];
  check_bool "one leg left maintains" true (agrees m);
  check_bool "one leg still derives" true (Instance.mem p (Dl_incr.full m));
  Dl_incr.retract_facts m [ e "s" "r" ];
  check_bool "no legs maintains" true (agrees m);
  check_bool "no legs: gone" false (Instance.mem p (Dl_incr.full m))

let test_engines () =
  (* every strategy must serve create and maintenance fixpoints *)
  List.iter
    (fun strategy ->
      let m = Dl_incr.create ~strategy tower.Datalog.program (chain 5) in
      check_bool
        (Printf.sprintf "create under %s" (Dl_engine.to_string strategy))
        true (agrees m);
      Dl_incr.assert_facts m [ e "a5" "a0" ];
      Dl_incr.retract_facts m [ e "a2" "a3" ];
      check_bool
        (Printf.sprintf "maintenance under %s" (Dl_engine.to_string strategy))
        true (agrees m))
    Dl_engine.all

(* Cyclic self-support: after the cut, T(a,b) and T(a,c) still have old
   derivations through the b-c cycle (T(a,b) <- T(a,c), E(c,b) and back),
   but no derivation from the surviving base.  A repair that counted a
   fact under search as its own proof would keep both. *)
let cycle_inst = Instance.of_list [ e "a" "b"; e "b" "c"; e "c" "b" ]
let gone = [ ("a", "b"); ("a", "c") ]
let kept = [ ("b", "b"); ("b", "c"); ("c", "b"); ("c", "c") ]

let check_cycle_cut name p =
  List.iter
    (fun strategy ->
      let m = Dl_incr.create ~strategy p cycle_inst in
      Dl_incr.retract_facts m [ e "a" "b" ];
      let label what =
        Printf.sprintf "%s, %s: %s" name (Dl_engine.to_string strategy) what
      in
      check_bool (label "maintains") true (agrees m);
      List.iter
        (fun (x, y) ->
          check_bool (label ("T(" ^ x ^ "," ^ y ^ ") gone")) false
            (Instance.mem (t' x y) (Dl_incr.full m)))
        gone;
      List.iter
        (fun (x, y) ->
          check_bool (label ("T(" ^ x ^ "," ^ y ^ ") kept")) true
            (Instance.mem (t' x y) (Dl_incr.full m)))
        kept;
      check_int (label "deleted") 2 (Dl_incr.last_repair m).Dl_incr.deleted)
    Dl_engine.all

let test_cyclic_self_support () =
  check_cycle_cut "left-linear tc"
    (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- T(x,z), E(z,y).")
      .Datalog.program;
  (* the same cycle carried through two mutually recursive predicates *)
  let mutual =
    Parse.query ~goal:"T"
      "T(x,y) <- E(x,y). T(x,y) <- U(x,z), E(z,y). U(x,y) <- T(x,y)."
  in
  check_bool "mutual: one recursive stratum" true
    (Dl_incr.strata (Dl_incr.create mutual.Datalog.program cycle_inst)
    = [ ([ "T"; "U" ], true) ]);
  List.iter
    (fun strategy ->
      let m = Dl_incr.create ~strategy mutual.Datalog.program cycle_inst in
      Dl_incr.retract_facts m [ e "a" "b" ];
      let u x y = Fact.make "U" [ c x; c y ] in
      let label what =
        Printf.sprintf "mutual, %s: %s" (Dl_engine.to_string strategy) what
      in
      check_bool (label "maintains") true (agrees m);
      List.iter
        (fun (x, y) ->
          check_bool (label ("T/U(" ^ x ^ "," ^ y ^ ") gone")) false
            (Instance.mem (t' x y) (Dl_incr.full m)
            || Instance.mem (u x y) (Dl_incr.full m)))
        gone;
      List.iter
        (fun (x, y) ->
          check_bool (label ("T/U(" ^ x ^ "," ^ y ^ ") kept")) true
            (Instance.mem (t' x y) (Dl_incr.full m)
            && Instance.mem (u x y) (Dl_incr.full m)))
        kept)
    Dl_engine.all

(* The load-bearing cut of the bench rows: a mid-chain edge of the
   128-chain with shortcuts.  Backward/Forward deletes exactly the facts
   lost and searches far fewer than the 4,088 a Delete-and-Rederive pass
   over-deleted here.  How many facts the proof search visits depends on
   the order it meets alternative derivations, which follows intern
   order; the nodes are interned along the chain, as parsing the
   instance's text would. *)
let test_repair_counters () =
  let n = 128 in
  let node i = Printf.sprintf "rc%d" i in
  List.iter (fun i -> ignore (c (node i))) (List.init (n + 1) Fun.id);
  let g =
    Instance.of_list
      (List.init n (fun i -> e (node i) (node (i + 1)))
      @ List.filter_map
          (fun i -> if i mod 5 = 0 then Some (e (node i) (node (i + 5))) else None)
          (List.init (n - 5) Fun.id))
  in
  let m = Dl_incr.create tc.Datalog.program g in
  let before = Dl_incr.full m in
  Dl_incr.retract_facts m [ e (node 63) (node 64) ];
  check_bool "cut maintains" true (agrees m);
  let lost = Instance.size (Instance.diff before (Dl_incr.full m)) - 1 in
  let r = Dl_incr.last_repair m in
  check_int "deleted = facts lost" lost r.Dl_incr.deleted;
  check_bool "checked < 1024" true (r.Dl_incr.checked < 1024);
  check_bool "proved <= checked" true (r.Dl_incr.proved <= r.Dl_incr.checked);
  Dl_incr.assert_facts m [ e (node 63) (node 64) ];
  check_bool "restore maintains" true (agrees m);
  check_int "pure assert deletes nothing" 0 (Dl_incr.last_repair m).Dl_incr.deleted

let test_cancellation () =
  let expired = Dl_cancel.with_deadline_ms 0 in
  check_bool "cancelled create raises" true
    (try
       ignore (Dl_incr.create ~cancel:expired tc.Datalog.program (chain 3));
       false
     with Dl_cancel.Cancelled -> true);
  let m = Dl_incr.create tc.Datalog.program (chain 3) in
  let base_before = Dl_incr.base m in
  check_bool "cancelled mutation raises" true
    (try
       Dl_incr.retract_facts ~cancel:expired m [ e "a0" "a1" ];
       false
     with Dl_cancel.Cancelled -> true);
  check_bool "base untouched" true (Instance.equal (Dl_incr.base m) base_before);
  check_bool "poisoned" false (Dl_incr.valid m);
  check_bool "further mutation rejected" true
    (try
       Dl_incr.assert_facts m [ e "b0" "b1" ];
       false
     with Invalid_argument _ -> true);
  (* a cancelled no-op mutation is harmless: nothing to repair *)
  let m2 = Dl_incr.create tc.Datalog.program (chain 3) in
  Dl_incr.retract_facts ~cancel:expired m2 [ e "z0" "z1" ];
  check_bool "no-op under deadline stays valid" true (Dl_incr.valid m2)

(* --- differential property: maintained = cold after every mutation --- *)

(* same fixed schema as test_datalog's generators *)
let dg_rels = [ ("E", 2); ("U", 1); ("P", 1); ("T", 2) ]

let dg_var =
  QCheck.Gen.(map (fun i -> [| "x"; "y"; "z"; "w" |].(i)) (int_bound 3))

let dg_atom rels =
  QCheck.Gen.(
    let* rel, arity = oneofl rels in
    let* vs = list_repeat arity dg_var in
    return (Cq.atom rel (List.map (fun v -> Cq.Var v) vs)))

let dg_rule =
  QCheck.Gen.(
    let* body = list_size (int_range 1 3) (dg_atom dg_rels) in
    let bvars =
      List.concat_map
        (fun (a : Cq.atom) ->
          List.filter_map
            (function Cq.Var v -> Some v | Cq.Cst _ -> None)
            a.args)
        body
    in
    let* hrel, harity = oneofl [ ("P", 1); ("T", 2) ] in
    let* hvs = list_repeat harity (oneofl bvars) in
    return (Datalog.rule (Cq.atom hrel (List.map (fun v -> Cq.Var v) hvs)) body))

let dg_const = QCheck.Gen.(map (fun i -> c ("e" ^ string_of_int i)) (int_bound 3))

let dg_fact rels =
  QCheck.Gen.(
    let* rel, arity = oneofl rels in
    let* args = list_repeat arity dg_const in
    return (Fact.make rel args))

(* a mutation: assert or retract a small batch of random facts (IDB
   facts included, so base-edit seeding of every stratum is exercised) *)
let dg_op rels =
  QCheck.Gen.(
    pair bool (list_size (int_range 1 3) (dg_fact rels)))

let dg_script rels =
  QCheck.Gen.(
    pair
      (map Instance.of_list (list_size (int_bound 10) (dg_fact rels)))
      (list_size (int_range 1 6) (dg_op rels)))

let pp_script (i, ops) =
  Fmt.str "start %a@.%a" Instance.pp i
    (Fmt.list (fun ppf (add, fs) ->
         Fmt.pf ppf "%s %a" (if add then "assert" else "retract")
           (Fmt.list Fact.pp) fs))
    ops

let run_script p (start, ops) =
  let m = Dl_incr.create p start in
  agrees m
  && List.for_all
       (fun (add, fs) ->
         if add then Dl_incr.assert_facts m fs else Dl_incr.retract_facts m fs;
         agrees m)
       ops

let script_arb rels = QCheck.make ~print:pp_script (dg_script rels)

let prop_family name p rels =
  QCheck.Test.make
    ~name:(Printf.sprintf "maintained = cold re-eval (%s)" name)
    ~count:120 (script_arb rels)
    (fun script -> run_script p script)

let prop_tc =
  prop_family "recursive closure" tc.Datalog.program [ ("E", 2); ("T", 2) ]

let prop_joins =
  prop_family "non-recursive joins" joins.Datalog.program
    [ ("E", 2); ("P", 2); ("Q", 1) ]

let prop_random =
  (* random stratified/recursive programs, random scripts *)
  QCheck.Test.make ~name:"maintained = cold re-eval (random programs)"
    ~count:120
    (QCheck.make
       ~print:(fun (p, s) ->
         Fmt.str "%a@.%s" Datalog.pp_program p (pp_script s))
       QCheck.Gen.(
         pair (list_size (int_range 1 5) dg_rule) (dg_script dg_rels)))
    (fun (p, script) -> run_script p script)

let suite =
  [
    Alcotest.test_case "stratification" `Quick test_stratify;
    Alcotest.test_case "assert/retract on closure" `Quick test_assert_retract_tc;
    Alcotest.test_case "retract never-asserted" `Quick
      test_retract_never_asserted;
    Alcotest.test_case "retract base fact also derivable" `Quick
      test_retract_base_also_derivable;
    Alcotest.test_case "assert already-derived" `Quick
      test_assert_already_derived;
    Alcotest.test_case "counting strata" `Quick test_counting_strata;
    Alcotest.test_case "all engines" `Quick test_engines;
    Alcotest.test_case "cyclic self-support" `Quick test_cyclic_self_support;
    Alcotest.test_case "repair counters" `Quick test_repair_counters;
    Alcotest.test_case "cancellation poisons" `Quick test_cancellation;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_tc; prop_joins; prop_random ]
