(* Tests for incremental view maintenance (Dl_incr): stratification
   units, hand-picked mutation edge cases (retract-never-asserted,
   retract-base-fact-also-derivable, assert-already-derived), per-engine
   create coverage, cancelled mutations, and the differential
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
  check_bool "tc: one stratum" true
    (Dl_incr.strata (Dl_incr.create tc.Datalog.program (chain 3))
    = [ [ "T" ] ]);
  let m = Dl_incr.create joins.Datalog.program (chain 3) in
  check_bool "joins: two strata in order" true
    (Dl_incr.strata m = [ [ "P" ]; [ "Q" ] ]);
  let m = Dl_incr.create tower.Datalog.program (chain 3) in
  check_bool "tower: three strata in order" true
    (Dl_incr.strata m = [ [ "B" ]; [ "T" ]; [ "Top" ] ]);
  (* mutually recursive predicates end up in one stratum *)
  let mutual =
    Parse.query ~goal:"A" "A(x) <- U(x). A(x) <- B(x). B(x) <- A(x)."
  in
  let m = Dl_incr.create mutual.Datalog.program Instance.empty in
  check_bool "mutual recursion: one SCC" true
    (Dl_incr.strata m = [ [ "A"; "B" ] ])

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
    (Instance.equal (Dl_incr.full m) before)

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

let test_nonrecursive_bf () =
  (* diamond: P(s,t) has two derivations via the two middle nodes, so
     retracting one leg must keep P alive — Backward/Forward finds the
     other leg in one head-seeded run — and the second retraction kills
     it *)
  let i = Instance.of_list [ e "s" "l"; e "s" "r"; e "l" "t"; e "r" "t" ] in
  let m = Dl_incr.create joins.Datalog.program i in
  let p = Fact.make "P" [ c "s"; c "t" ] in
  check_bool "both legs derive" true (Instance.mem p (Dl_incr.full m));
  Dl_incr.retract_facts m [ e "l" "t" ];
  check_bool "one leg left maintains" true (agrees m);
  check_bool "one leg still derives" true (Instance.mem p (Dl_incr.full m));
  let r = Dl_incr.last_repair m in
  check_int "one leg: P(s,t) checked" 1 r.Dl_incr.checked;
  check_int "one leg: P(s,t) proved" 1 r.Dl_incr.proved;
  check_int "one leg: nothing deleted" 0 r.Dl_incr.deleted;
  Dl_incr.retract_facts m [ e "s" "r" ];
  check_bool "no legs maintains" true (agrees m);
  check_bool "no legs: gone" false (Instance.mem p (Dl_incr.full m));
  let r = Dl_incr.last_repair m in
  check_int "no legs: P(s,t) proved" 0 r.Dl_incr.proved;
  check_int "no legs: P(s,t) deleted" 1 r.Dl_incr.deleted

let test_bodiless_rule () =
  (* G() holds unconditionally: retracting its asserted copy keeps it,
     and H() lives and dies with the edges *)
  let g = Fact.make "G" [] and h = Fact.make "H" [] in
  let p =
    [ Datalog.rule (Cq.atom "G" []) []; Parse.rule "H() <- G(), E(x,y)." ]
  in
  let m = Dl_incr.create p (Instance.add g (chain 1)) in
  check_bool "create = cold" true (agrees m);
  Dl_incr.retract_facts m [ g ];
  check_bool "G retract maintains" true (agrees m);
  check_bool "G still derived" true (Instance.mem g (Dl_incr.full m));
  Dl_incr.retract_facts m [ e "a0" "a1" ];
  check_bool "edge retract maintains" true (agrees m);
  check_bool "H gone" false (Instance.mem h (Dl_incr.full m));
  Dl_incr.assert_facts m [ e "a0" "a1" ];
  check_bool "edge assert maintains" true (agrees m);
  check_bool "H back" true (Instance.mem h (Dl_incr.full m))

let test_create_maintain () =
  (* the engine serves the create fixpoint and the maintenance passes *)
  let m = Dl_incr.create tower.Datalog.program (chain 5) in
  check_bool "create" true (agrees m);
  Dl_incr.assert_facts m [ e "a5" "a0" ];
  Dl_incr.retract_facts m [ e "a2" "a3" ];
  check_bool "maintenance" true (agrees m)

(* Cyclic self-support: after the cut, T(a,b) and T(a,c) still have old
   derivations through the b-c cycle (T(a,b) <- T(a,c), E(c,b) and back),
   but no derivation from the surviving base.  A repair that counted a
   fact under search as its own proof would keep both. *)
let cycle_inst = Instance.of_list [ e "a" "b"; e "b" "c"; e "c" "b" ]
let gone = [ ("a", "b"); ("a", "c") ]
let kept = [ ("b", "b"); ("b", "c"); ("c", "b"); ("c", "c") ]

let check_cycle_cut name p =
  let m = Dl_incr.create p cycle_inst in
  Dl_incr.retract_facts m [ e "a" "b" ];
  let label what = Printf.sprintf "%s: %s" name what in
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
  check_int (label "deleted") 2 (Dl_incr.last_repair m).Dl_incr.deleted

let test_cyclic_self_support () =
  check_cycle_cut "left-linear tc"
    (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- T(x,z), E(z,y).")
      .Datalog.program;
  (* the same cycle carried through two mutually recursive predicates *)
  let mutual =
    Parse.query ~goal:"T"
      "T(x,y) <- E(x,y). T(x,y) <- U(x,z), E(z,y). U(x,y) <- T(x,y)."
  in
  check_bool "mutual: one stratum" true
    (Dl_incr.strata (Dl_incr.create mutual.Datalog.program cycle_inst)
    = [ [ "T"; "U" ] ]);
  let m = Dl_incr.create mutual.Datalog.program cycle_inst in
  Dl_incr.retract_facts m [ e "a" "b" ];
  let u x y = Fact.make "U" [ c x; c y ] in
  let label what = "mutual: " ^ what in
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
    kept

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

(* A cancelled pass writes nothing: the materialization stays as it was,
   and the same edit applied again without a deadline lands as a cold
   build of the edited base would. *)
let test_cancellation () =
  let expired = Dl_cancel.with_deadline_ms 0 in
  check_bool "cancelled create raises" true
    (try
       ignore (Dl_incr.create ~cancel:expired tc.Datalog.program (chain 3));
       false
     with Dl_cancel.Cancelled -> true);
  let m = Dl_incr.create tc.Datalog.program (chain 3) in
  let base_before = Dl_incr.base m and full_before = Dl_incr.full m in
  let adds = [ e "a3" "a4" ] and dels = [ e "a0" "a1" ] in
  check_bool "cancelled mutation raises" true
    (try
       Dl_incr.apply ~cancel:expired m ~adds ~dels;
       false
     with Dl_cancel.Cancelled -> true);
  check_bool "base untouched" true (Instance.equal (Dl_incr.base m) base_before);
  check_bool "fixpoint untouched" true
    (Instance.equal (Dl_incr.full m) full_before);
  Dl_incr.apply m ~adds ~dels;
  let edited =
    Instance.add (e "a3" "a4") (Instance.remove (e "a0" "a1") (chain 3))
  in
  check_bool "retried edit lands on the edited base" true
    (Instance.equal (Dl_incr.base m) edited);
  check_bool "retried edit = cold build of the edited base" true
    (Instance.equal (Dl_incr.full m)
       (Dl_incr.full (Dl_incr.create tc.Datalog.program edited)));
  (* a cancelled no-op mutation is harmless: nothing to repair *)
  let m2 = Dl_incr.create tc.Datalog.program (chain 3) in
  Dl_incr.retract_facts ~cancel:expired m2 [ e "z0" "z1" ];
  check_bool "no-op under deadline keeps the fixpoint" true
    (Instance.equal (Dl_incr.full m2) full_before)

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
    Alcotest.test_case "non-recursive Backward/Forward" `Quick
      test_nonrecursive_bf;
    Alcotest.test_case "bodiless rule" `Quick test_bodiless_rule;
    Alcotest.test_case "create and maintain" `Quick test_create_maintain;
    Alcotest.test_case "cyclic self-support" `Quick test_cyclic_self_support;
    Alcotest.test_case "repair counters" `Quick test_repair_counters;
    Alcotest.test_case "cancelled mutation leaves it usable" `Quick
      test_cancellation;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_tc; prop_joins; prop_random ]
