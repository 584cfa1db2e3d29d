(* Tests for the relational substrate: constants, facts, instances,
   homomorphisms, Gaifman graphs. *)

let c = Const.named
let f rel args = Fact.make rel (List.map c args)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let i_of = Instance.of_list

(* ---------------------------------------------------------------- *)
(* Instances                                                         *)

let test_instance_basic () =
  let i = i_of [ f "R" [ "a"; "b" ]; f "R" [ "b"; "c" ]; f "U" [ "a" ] ] in
  check_int "size" 3 (Instance.size i);
  check_bool "mem" true (Instance.mem (f "R" [ "a"; "b" ]) i);
  check_bool "not mem" false (Instance.mem (f "R" [ "a"; "a" ]) i);
  let i' = Instance.add (f "R" [ "a"; "b" ]) i in
  check_int "idempotent add" 3 (Instance.size i');
  check_int "adom" 3 (Const.Set.cardinal (Instance.adom i));
  check_bool "relations" true (Instance.relations i = [ "R"; "U" ])

let test_instance_set_ops () =
  let a = i_of [ f "R" [ "a"; "b" ]; f "U" [ "a" ] ] in
  let b = i_of [ f "R" [ "a"; "b" ]; f "U" [ "b" ] ] in
  check_int "union" 3 (Instance.size (Instance.union a b));
  check_int "inter" 1 (Instance.size (Instance.inter a b));
  check_int "diff" 1 (Instance.size (Instance.diff a b));
  check_bool "subset" true (Instance.subset (Instance.inter a b) a);
  check_bool "not subset" false (Instance.subset a b);
  check_bool "equal" true (Instance.equal a (i_of [ f "U" [ "a" ]; f "R" [ "a"; "b" ] ]))

let test_instance_restrict_map () =
  let a = i_of [ f "R" [ "a"; "b" ]; f "U" [ "a" ] ] in
  let r = Instance.restrict (String.equal "R") a in
  check_int "restrict" 1 (Instance.size r);
  let m = Instance.map (fun _ -> c "z") a in
  check_bool "map collapses" true
    (Instance.equal m (i_of [ f "R" [ "z"; "z" ]; f "U" [ "z" ] ]));
  let ra = Instance.rename_apart a in
  check_int "rename_apart same size" 2 (Instance.size ra);
  check_bool "rename_apart disjoint adom" true
    (Const.Set.is_empty (Const.Set.inter (Instance.adom a) (Instance.adom ra)))

let test_tuples_with () =
  let i = i_of [ f "R" [ "a"; "b" ]; f "R" [ "a"; "c" ]; f "R" [ "b"; "c" ] ] in
  check_int "bound first" 2 (List.length (Instance.tuples_with i "R" [ (0, c "a") ]));
  check_int "bound both" 1
    (List.length (Instance.tuples_with i "R" [ (0, c "a"); (1, c "c") ]));
  check_int "bound none" 3 (List.length (Instance.tuples_with i "R" []));
  check_int "missing rel" 0 (List.length (Instance.tuples_with i "S" []))

(* ---------------------------------------------------------------- *)
(* Homomorphisms                                                     *)

(* a directed path a->b->c and a triangle x->y->z->x *)
let path3 = i_of [ f "E" [ "a"; "b" ]; f "E" [ "b"; "c" ] ]
let triangle = i_of [ f "E" [ "x"; "y" ]; f "E" [ "y"; "z" ]; f "E" [ "z"; "x" ] ]
let loop1 = i_of [ f "E" [ "o"; "o" ] ]

let test_hom_exists () =
  check_bool "path -> triangle" true (Hom.exists path3 triangle);
  check_bool "triangle -/-> path" false (Hom.exists triangle path3);
  check_bool "triangle -> loop" true (Hom.exists triangle loop1);
  check_bool "path -> loop" true (Hom.exists path3 loop1);
  check_bool "loop -/-> path" false (Hom.exists loop1 path3);
  check_bool "loop -/-> triangle" false (Hom.exists loop1 triangle)

let test_hom_is_hom () =
  match Hom.find path3 triangle with
  | None -> Alcotest.fail "expected hom"
  | Some h -> check_bool "is_hom" true (Hom.is_hom h path3 triangle)

let test_hom_init () =
  (* with init fixing a↦x, a hom must send b↦y, c↦z *)
  let init = Const.Map.singleton (c "a") (c "x") in
  (match Hom.find ~init path3 triangle with
  | None -> Alcotest.fail "expected hom with init"
  | Some h ->
      check_bool "b↦y" true (Const.equal (Const.Map.find (c "b") h) (c "y")));
  (* init mapping both endpoints of an edge to non-edge: no hom *)
  let bad =
    Const.Map.add (c "a") (c "x") (Const.Map.singleton (c "b") (c "x"))
  in
  check_bool "no hom with bad init" false (Hom.exists ~init:bad path3 triangle)

let test_hom_count () =
  (* homs from a single edge into a triangle: 3 *)
  let edge = i_of [ f "E" [ "u"; "v" ] ] in
  check_int "edge into triangle" 3 (Hom.count edge triangle);
  (* homs from path3 into triangle: each start vertex determines the rest *)
  check_int "path3 into triangle" 3 (Hom.count path3 triangle);
  check_int "limit" 2 (Hom.count ~limit:2 path3 triangle)

let test_hom_nullary () =
  let src = i_of [ Fact.make "G" [] ] in
  let dst = i_of [ Fact.make "G" []; f "E" [ "a"; "b" ] ] in
  check_bool "nullary hom" true (Hom.exists src dst);
  check_bool "nullary no hom" false (Hom.exists src path3)

let test_core () =
  (* the core of a path with a pendant copy: E(a,b), E(a,b') folds to one edge *)
  let i = i_of [ f "E" [ "a"; "b" ]; f "E" [ "a"; "b2" ] ] in
  let core = Hom.endo_core i in
  check_int "folded" 1 (Instance.size core);
  (* triangle is a core *)
  let core_t = Hom.endo_core triangle in
  check_int "triangle is core" 3 (Instance.size core_t);
  (* homomorphic equivalence preserved *)
  check_bool "core <-> original" true
    (Hom.exists core i && Hom.exists i core)

(* ---------------------------------------------------------------- *)
(* Gaifman graphs                                                    *)

let test_gaifman () =
  let g = Gaifman.of_instance path3 in
  check_int "nodes" 3 (List.length (Gaifman.nodes g));
  check_bool "dist a-c" true (Gaifman.distance g (c "a") (c "c") = Some 2);
  check_bool "radius path3" true (Gaifman.radius g = Some 1);
  check_bool "connected" true (Gaifman.connected g);
  let disc = i_of [ f "U" [ "a" ]; f "U" [ "b" ] ] in
  let gd = Gaifman.of_instance disc in
  check_bool "disconnected" false (Gaifman.connected gd);
  check_int "components" 2 (List.length (Gaifman.components gd));
  check_bool "radius disconnected" true (Gaifman.radius gd = None)

let test_gaifman_ternary () =
  (* a ternary fact makes a clique of its elements *)
  let i = i_of [ f "T" [ "a"; "b"; "c" ] ] in
  let g = Gaifman.of_instance i in
  check_bool "a-b adjacent" true (Gaifman.distance g (c "a") (c "b") = Some 1);
  check_bool "radius 1" true (Gaifman.radius g = Some 1);
  check_int "ball" 3 (Const.Set.cardinal (Gaifman.ball g (c "a") 1))

(* ---------------------------------------------------------------- *)
(* Properties                                                        *)

let const_gen =
  QCheck.Gen.(map (fun i -> Const.named ("e" ^ string_of_int i)) (int_bound 5))

let fact_gen =
  QCheck.Gen.(
    let* rel = map (fun i -> [| "R"; "S"; "U" |].(i)) (int_bound 2) in
    let arity = if rel = "U" then 1 else 2 in
    let* args = list_repeat arity const_gen in
    return (Fact.make rel args))

let instance_gen = QCheck.Gen.(map Instance.of_list (list_size (int_bound 12) fact_gen))

let instance_arb =
  QCheck.make ~print:(fun i -> Fmt.str "%a" Instance.pp i) instance_gen

let prop_union_monotone =
  QCheck.Test.make ~name:"hom into superset still a hom" ~count:60
    (QCheck.pair instance_arb instance_arb) (fun (a, b) ->
      match Hom.find a (Instance.union a b) with
      | None -> false
      | Some h -> Hom.is_hom h a (Instance.union a b))

let prop_identity_hom =
  QCheck.Test.make ~name:"identity is a hom" ~count:60 instance_arb (fun a ->
      Hom.exists a a)

let prop_hom_compose =
  QCheck.Test.make ~name:"hom composition" ~count:40
    (QCheck.pair instance_arb instance_arb) (fun (a, b) ->
      let ab = Instance.union a b in
      match Hom.find a ab with
      | None -> false
      | Some h ->
          (* compose with a collapsing endomorphism of ab *)
          let z = Const.named "z" in
          let g =
            Const.Set.fold
              (fun x m -> Const.Map.add x z m)
              (Instance.adom ab) Const.Map.empty
          in
          let collapsed = Instance.map (fun _ -> z) ab in
          Hom.is_hom (Hom.compose g h) a collapsed)

let prop_core_equivalent =
  QCheck.Test.make ~name:"core is hom-equivalent" ~count:30 instance_arb
    (fun a ->
      let core = Hom.endo_core a in
      (Instance.is_empty a && Instance.is_empty core)
      || (Hom.exists a core && Hom.exists core a))

let qcheck = List.map QCheck_alcotest.to_alcotest
  [ prop_union_monotone; prop_identity_hom; prop_hom_compose; prop_core_equivalent ]

let suite =
  [
    Alcotest.test_case "instance basic" `Quick test_instance_basic;
    Alcotest.test_case "instance set ops" `Quick test_instance_set_ops;
    Alcotest.test_case "instance restrict/map" `Quick test_instance_restrict_map;
    Alcotest.test_case "tuples_with" `Quick test_tuples_with;
    Alcotest.test_case "hom exists" `Quick test_hom_exists;
    Alcotest.test_case "hom is_hom" `Quick test_hom_is_hom;
    Alcotest.test_case "hom init" `Quick test_hom_init;
    Alcotest.test_case "hom count" `Quick test_hom_count;
    Alcotest.test_case "hom nullary" `Quick test_hom_nullary;
    Alcotest.test_case "core" `Quick test_core;
    Alcotest.test_case "gaifman" `Quick test_gaifman;
    Alcotest.test_case "gaifman ternary" `Quick test_gaifman_ternary;
  ]
  @ qcheck

(* ---------------------------------------------------------------- *)
(* Index-backed access paths, checked against scan oracles           *)

let scan_tuples_with i rel cs =
  List.filter
    (fun tup ->
      List.for_all
        (fun (p, cc) -> p < Array.length tup && Const.equal tup.(p) cc)
        cs)
    (Instance.tuples i rel)

let constraint_gen =
  QCheck.Gen.(
    list_size (int_bound 3) (pair (int_bound 2) const_gen))

let tw_arb =
  QCheck.make
    ~print:(fun (i, cs) ->
      Fmt.str "%a with %a" Instance.pp i
        Fmt.(list ~sep:comma (pair int Const.pp))
        cs)
    QCheck.Gen.(pair instance_gen constraint_gen)

let prop_tuples_with_oracle =
  QCheck.Test.make ~name:"tuples_with = scan filter" ~count:120 tw_arb
    (fun (i, cs) ->
      let norm ts = List.sort compare (List.map Array.to_list ts) in
      List.for_all
        (fun rel ->
          norm (Instance.tuples_with i rel cs) = norm (scan_tuples_with i rel cs))
        ("missing" :: Instance.relations i))

let prop_estimate_upper_bound =
  QCheck.Test.make ~name:"estimate_with bounds tuples_with" ~count:120 tw_arb
    (fun (i, cs) ->
      List.for_all
        (fun rel ->
          List.length (Instance.tuples_with i rel cs)
          <= Instance.estimate_with i rel cs)
        (Instance.relations i))

let prop_no_empty_relations =
  (* the no-empty-relation invariant behind O(1) [is_empty]: set operations
     never leave a relation with zero tuples in the map *)
  QCheck.Test.make ~name:"relations lists only non-empty ones" ~count:120
    (QCheck.pair instance_arb instance_arb)
    (fun (a, b) ->
      let ok i =
        List.for_all (fun r -> Instance.cardinal i r > 0) (Instance.relations i)
        && Instance.is_empty i = (Instance.size i = 0)
      in
      let removed =
        Instance.fold (fun fct acc -> Instance.remove fct acc) b (Instance.union a b)
      in
      ok (Instance.union a b) && ok (Instance.diff a b) && ok (Instance.inter a b)
      && ok removed
      && Instance.is_empty (Instance.diff a a))

let constraint_arb =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:comma (pair int Const.pp)))
    constraint_gen

let prop_warm_union_index =
  (* unioning extends the larger operand's cached index incrementally;
     the extended buckets must agree with a scan of the unioned instance *)
  QCheck.Test.make ~name:"warm incremental union index = scan filter" ~count:120
    (QCheck.triple instance_arb instance_arb constraint_arb)
    (fun (a, b, cs) ->
      (* force a's caches so the union takes the extend path *)
      List.iter (fun r -> ignore (Instance.tuples_with a r [ (0, c "e0") ]))
        (Instance.relations a);
      let u = Instance.union a b in
      let norm ts = List.sort compare (List.map Array.to_list ts) in
      List.for_all
        (fun rel ->
          norm (Instance.tuples_with u rel cs) = norm (scan_tuples_with u rel cs)
          && List.length (Instance.tuples_with u rel cs)
             <= Instance.estimate_with u rel cs)
        (Instance.relations u))

let prop_warm_diff_index =
  (* diffing shrinks the left operand's cached index (Index.shrink); the
     shrunk buckets must agree with a fresh build over the survivors, at
     every removal fraction the stride produces, and the decrementally
     maintained fingerprint with a cold rebuild *)
  QCheck.Test.make ~name:"warm diff index = scan filter" ~count:120
    (QCheck.triple
       (QCheck.make
          ~print:(Fmt.str "%a" Fmt.(list ~sep:comma Fact.pp))
          QCheck.Gen.(list_size (int_range 1 40) fact_gen))
       (QCheck.int_range 1 8) instance_arb)
    (fun (facts, stride, extra) ->
      let a = Instance.of_list facts in
      List.iter (fun r -> ignore (Instance.index a r)) (Instance.relations a);
      let picked = List.filteri (fun i _ -> i mod stride = 0) facts in
      let d = Instance.diff a (Instance.union (Instance.of_list picked) extra) in
      let norm ts = List.sort compare (List.map Array.to_list ts) in
      let same i j =
        Index.size i = Index.size j
        && norm (Index.all i) = norm (Index.all j)
        && List.for_all
             (fun p ->
               List.for_all
                 (fun k ->
                   let cc = c ("e" ^ string_of_int k) in
                   Index.count i p cc = Index.count j p cc
                   && norm (Index.lookup i p cc) = norm (Index.lookup j p cc))
                 [ 0; 1; 2; 3; 4; 5 ])
             [ 0; 1 ]
      in
      let fresh = Instance.of_list (Instance.facts d) in
      Instance.fingerprint d = Instance.fingerprint fresh
      && List.for_all
           (fun rel ->
             let tups = Instance.tuples a rel in
             let gone =
               List.filter
                 (fun t -> not (List.mem t (Instance.tuples d rel)))
                 tups
             in
             let survivors = Instance.tuples d rel in
             (survivors = []
             || same (Option.get (Instance.index d rel))
                  (Option.get (Instance.index fresh rel)))
             && same
                  (Index.shrink (Index.build tups) gone)
                  (Index.build survivors))
           (Instance.relations a))

(* ---------------------------------------------------------------- *)
(* Structural fingerprints and the interning layer                    *)

let prop_fp_structural =
  (* the cache-key contract: fingerprint equality ⇔ structural equality
     (the ⇐ direction is the maintained invariant; ⇒ would only fail on
     a 126-bit collision, which these instances cannot produce) *)
  QCheck.Test.make ~name:"fingerprint equality = structural equality"
    ~count:200
    (QCheck.pair instance_arb instance_arb)
    (fun (a, b) ->
      Instance.equal a b = (Instance.fingerprint a = Instance.fingerprint b))

let prop_fp_union_order =
  (* incrementally maintained fingerprints are history-independent:
     either union order, and a cold rebuild from the fact list, all
     yield the same pair *)
  QCheck.Test.make ~name:"fingerprint independent of union order" ~count:120
    (QCheck.pair instance_arb instance_arb)
    (fun (a, b) ->
      let u = Instance.union a b in
      Instance.fingerprint u = Instance.fingerprint (Instance.union b a)
      && Instance.fingerprint u
         = Instance.fingerprint (Instance.of_list (Instance.facts u)))

let prop_fp_warm_union =
  (* the index-extending union path maintains the same fingerprint as
     the cold path *)
  QCheck.Test.make ~name:"fingerprint survives warm union" ~count:120
    (QCheck.pair instance_arb instance_arb)
    (fun (a, b) ->
      List.iter (fun r -> ignore (Instance.index a r)) (Instance.relations a);
      Instance.fingerprint (Instance.union a b)
      = Instance.fingerprint (Instance.of_list (Instance.facts a @ Instance.facts b)))

let prop_fp_add_remove =
  (* add/remove round-trips restore the fingerprint exactly *)
  QCheck.Test.make ~name:"fingerprint add/remove round-trip" ~count:120
    (QCheck.pair instance_arb (QCheck.make fact_gen))
    (fun (a, fct) ->
      let fp = Instance.fingerprint a in
      let added = Instance.add fct a in
      let back =
        if Instance.mem fct a then added else Instance.remove fct added
      in
      Instance.fingerprint back = fp
      && (Instance.mem fct a
         || Instance.fingerprint added <> fp))

(* ---------------------------------------------------------------- *)
(* The primitives of the semi-naive round: the disjoint union, the bulk
   constructor and the allocation-free tuple order                      *)

let norm_tups ts = List.sort compare (List.map Array.to_list ts)

(* an index's contents as seen through its lookups *)
let same_index i j =
  Index.size i = Index.size j
  && norm_tups (Index.all i) = norm_tups (Index.all j)
  && List.for_all
       (fun p ->
         List.for_all
           (fun k ->
             let cc = c ("e" ^ string_of_int k) in
             Index.count i p cc = Index.count j p cc
             && norm_tups (Index.lookup i p cc) = norm_tups (Index.lookup j p cc))
           [ 0; 1; 2; 3; 4; 5 ])
       [ 0; 1 ]

(* everything a counted or cached consumer reads off an instance *)
let same_counts a b =
  Instance.equal a b
  && Instance.facts a = Instance.facts b
  && Instance.size a = Instance.size b
  && Instance.fingerprint a = Instance.fingerprint b
  && List.for_all
       (fun rel ->
         let rid = Symtab.intern rel in
         Instance.cardinal_id a rid = Instance.cardinal_id b rid)
       [ "R"; "S"; "U" ]

let prop_union_disjoint =
  (* on disjoint operands the cheap union is [union]: same facts, counts
     and fingerprint; and the index it extends lazily from an operand's,
     across a chain of two unions whose operands are indexed before the
     union, after it or never, answers like a cold build.  The mask's
     bits pick the indexing points and the operand order. *)
  QCheck.Test.make ~name:"union_disjoint = union on disjoint operands"
    ~count:200
    (QCheck.quad instance_arb instance_arb instance_arb (QCheck.int_bound 63))
    (fun (a, b, c, mask) ->
      let b = Instance.diff b a in
      let c = Instance.diff (Instance.diff c a) b in
      let warm bit i =
        if mask land (1 lsl bit) <> 0 then
          List.iter (fun r -> ignore (Instance.index i r)) (Instance.relations i)
      in
      warm 0 a;
      warm 1 b;
      let x, y = if mask land 4 <> 0 then (b, a) else (a, b) in
      let u1 = Instance.union_disjoint x y in
      warm 3 a;
      warm 4 u1;
      let u2 = Instance.union_disjoint u1 c in
      warm 5 u1;
      let agrees u v =
        let cold = Instance.of_list (Instance.facts v) in
        same_counts u v
        && List.for_all
             (fun rel ->
               same_index
                 (Option.get (Instance.index u rel))
                 (Option.get (Instance.index cold rel)))
             (Instance.relations u)
      in
      agrees u2 (Instance.union (Instance.union x y) c)
      && agrees u1 (Instance.union x y))

let prop_of_list_bulk =
  (* the bulk constructor against one [add] per fact, on lists that
     repeat facts *)
  QCheck.Test.make ~name:"bulk of_list = folded add, with duplicates"
    ~count:150
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:comma Fact.pp))
       QCheck.Gen.(list_size (int_bound 30) fact_gen))
    (fun facts ->
      let l = facts @ List.filteri (fun i _ -> i mod 3 = 0) facts in
      same_counts (Instance.of_list l)
        (List.fold_left (fun i f -> Instance.add f i) Instance.empty l))

(* The closure-based definitions the allocation-free loops replaced,
   kept as oracles: sets, iteration order, fingerprints and goldens all
   rest on them. *)
let old_compare_args (a : Const.t array) (b : Const.t array) =
  let la = Array.length a and lb = Array.length b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    let rec go i =
      if i = la then 0
      else
        let c = Const.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let old_fact_compare (a : Fact.t) (b : Fact.t) =
  let c = Int.compare a.rid b.rid in
  if c <> 0 then c else old_compare_args a.args b.args

let old_tuple_hash rid (args : Const.t array) =
  let h1 = ref (Fp.mix (Fp.seed1 lxor rid))
  and h2 = ref (Fp.mix (Fp.seed2 lxor rid)) in
  Array.iter
    (fun c ->
      h1 := Fp.step !h1 (Const.hash c);
      h2 := Fp.step !h2 (Const.hash2 c))
    args;
  (!h1, !h2)

let prop_order_pinned =
  (* facts of mixed lengths under one relation name, so the length
     comparison is exercised as well as the positionwise one *)
  let ragged =
    QCheck.Gen.(
      let* rel = oneofl [ "R"; "S" ] in
      let* args = list_size (int_bound 3) const_gen in
      return (Fact.make rel args))
  in
  let sign x = Int.compare x 0 in
  QCheck.Test.make ~name:"tuple order and hash = closure definitions"
    ~count:300
    (QCheck.make
       ~print:(fun (x, y) -> Fmt.str "%a / %a" Fact.pp x Fact.pp y)
       QCheck.Gen.(pair ragged ragged))
    (fun (x, y) ->
      sign (Fact.compare x y) = sign (old_fact_compare x y)
      && sign (Fact.compare_args x.args y.args)
         = sign (old_compare_args x.args y.args)
      && Fact.compare x x = 0
      && Fact.tuple_hash x.rid x.args = old_tuple_hash x.rid x.args
      && Fact.hash_pair x = old_tuple_hash x.rid x.args)

let test_fingerprint_hex () =
  let a = i_of [ f "R" [ "a"; "b" ]; f "U" [ "a" ] ] in
  Alcotest.(check int) "hex width" 32 (String.length (Instance.fingerprint_hex a));
  Alcotest.(check int)
    "empty hex width" 32
    (String.length (Instance.fingerprint_hex Instance.empty));
  check_bool "hex ≠ for ≠ instances" true
    (Instance.fingerprint_hex a <> Instance.fingerprint_hex Instance.empty)

let test_query_fingerprint () =
  let q () =
    Datalog.make
      [
        Datalog.rule
          (Cq.atom "T" [ Cq.Var "x"; Cq.Var "y" ])
          [ Cq.atom "E" [ Cq.Var "x"; Cq.Var "y" ] ];
        Datalog.rule
          (Cq.atom "T" [ Cq.Var "x"; Cq.Var "z" ])
          [
            Cq.atom "E" [ Cq.Var "x"; Cq.Var "y" ];
            Cq.atom "T" [ Cq.Var "y"; Cq.Var "z" ];
          ];
      ]
      "T"
  in
  let q1 = q () and q2 = q () in
  check_bool "equal queries fingerprint equal" true
    (Datalog.fingerprint q1 = Datalog.fingerprint q2);
  check_bool "memoized call stable" true
    (Datalog.fingerprint q1 = Datalog.fingerprint q1);
  let q3 = Datalog.make (List.tl q1.Datalog.program) "T" in
  check_bool "different program, different fingerprint" true
    (Datalog.fingerprint q1 <> Datalog.fingerprint q3);
  Alcotest.(check int) "hex width" 32 (String.length (Datalog.fingerprint_hex q1))

(* [Const.fresh] must hand out globally distinct nulls even when several
   domains allocate concurrently (chase steps on the pool do). *)
let test_fresh_atomic_domains () =
  let per_domain = 2000 and ndomains = 4 in
  let gen () = Array.init per_domain (fun _ -> Const.fresh ()) in
  let handles = List.init (ndomains - 1) (fun _ -> Domain.spawn gen) in
  let mine = gen () in
  let all = mine :: List.map Domain.join handles in
  let tbl = Hashtbl.create (per_domain * ndomains) in
  List.iter (Array.iter (fun c -> Hashtbl.replace tbl c ())) all;
  check_int "all nulls distinct" (per_domain * ndomains) (Hashtbl.length tbl);
  List.iter
    (Array.iter (fun c -> check_bool "fresh is fresh" true (Const.is_fresh c)))
    all

let suite =
  suite
  @ [
      Alcotest.test_case "fingerprint hex" `Quick test_fingerprint_hex;
      Alcotest.test_case "query fingerprint" `Quick test_query_fingerprint;
      Alcotest.test_case "fresh nulls across domains" `Quick
        test_fresh_atomic_domains;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_tuples_with_oracle;
        prop_estimate_upper_bound;
        prop_no_empty_relations;
        prop_warm_union_index;
        prop_warm_diff_index;
        prop_fp_structural;
        prop_fp_union_order;
        prop_fp_warm_union;
        prop_fp_add_remove;
        prop_union_disjoint;
        prop_of_list_bulk;
        prop_order_pinned;
      ]
