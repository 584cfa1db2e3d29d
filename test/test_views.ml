(* Tests for views, view images, and the inverse-rules algorithm. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let c = Const.named

let path_view = View.cq "P2" (Parse.cq "v(x,y) <- E(x,z), E(z,y)")
let proj_view = View.cq "P1" (Parse.cq "v(x) <- E(x,y)")
let atomic_e = View.atomic "VE" "E" 2

let inst = Parse.instance "E(a,b). E(b,d). E(d,a)."

let test_image () =
  let img = View.image [ path_view; proj_view ] inst in
  check_int "P2 tuples" 3 (List.length (Instance.tuples img "P2"));
  check_int "P1 tuples" 3 (List.length (Instance.tuples img "P1"));
  check_bool "P2(a,d)" true
    (Instance.mem (Fact.make "P2" [ c "a"; c "d" ]) img)

let test_atomic () =
  let img = View.image [ atomic_e ] inst in
  check_int "copies" 3 (List.length (Instance.tuples img "VE"));
  check_int "arity" 2 (View.arity atomic_e)

let test_datalog_view () =
  let tc = Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)." in
  let v = View.datalog "VT" tc in
  let img = View.image [ v ] inst in
  (* transitive closure of a 3-cycle: all 9 pairs *)
  check_int "tc tuples" 9 (List.length (Instance.tuples img "VT"))

let test_def_as_datalog () =
  let q = path_view.View.program in
  check_bool "goal is view name" true (String.equal q.Datalog.goal "P2");
  let out = Dl_engine.eval q inst in
  check_int "same as direct eval" 3 (List.length out)

let test_schemas () =
  let vs = [ path_view; proj_view ] in
  check_bool "view schema" true
    (Schema.relations (View.view_schema vs) = [ ("P1", 1); ("P2", 2) ]);
  check_bool "base schema" true
    (Schema.relations (View.base_schema vs) = [ ("E", 2) ])

let test_classification () =
  check_bool "cq collection" true (View.is_cq_collection [ path_view; atomic_e ]);
  check_bool "not cq" false
    (View.is_cq_collection [ View.ucq "U" (Parse.ucq "v(x) <- E(x,y). v(x) <- E(y,x).") ]);
  check_bool "max radius" true (View.max_radius [ path_view; proj_view ] = Some 1);
  check_bool "connected" true (View.all_connected_cqs [ path_view ])

let test_split_disconnected () =
  let disc = View.cq "W" (Parse.cq "v(x,y) <- U(x), V(y)") in
  let parts = View.split_disconnected disc in
  check_int "two parts" 2 (List.length parts);
  (* reconstruction: the product of the parts has the same tuples *)
  let i = Parse.instance "U(a). U(b). V(z)." in
  let orig = View.image [ disc ] i in
  let imgs = View.image parts i in
  let product =
    List.concat_map
      (fun t1 ->
        List.map
          (fun t2 -> Fact.make "W" [ t1.(0); t2.(0) ])
          (Instance.tuples imgs (List.nth parts 1).View.name))
      (Instance.tuples imgs (List.nth parts 0).View.name)
  in
  check_bool "product reconstructs" true
    (Instance.equal orig (Instance.of_list product))

(* ------------- inverse rules ------------- *)

let tc_query = Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."

let test_inverse_identity_views () =
  (* views = identity copy: certain answers = the query itself *)
  let rw = Inverse_rules.rewrite tc_query [ atomic_e ] in
  let img = View.image [ atomic_e ] inst in
  let out = Dl_engine.eval rw img in
  check_int "tc of 3-cycle" 9 (List.length out)

let test_inverse_path_views () =
  (* view exposes only 2-paths: certain answers of "exists an edge" from
     P2(a,c) must be true (some edge is certain), and the goal pairs are
     the composed 2-paths *)
  let q = Parse.query ~goal:"G" "G(x,y) <- E(x,z), E(z,y)." in
  let rw = Inverse_rules.rewrite q [ path_view ] in
  let j = Instance.of_list [ Fact.make "P2" [ c "a"; c "b" ] ] in
  let out = Dl_engine.eval rw j in
  (* P2(a,b) certainly contains a 2-path from a to b *)
  check_bool "certain 2-path" true
    (List.exists (fun t -> Const.equal t.(0) (c "a") && Const.equal t.(1) (c "b")) out)

let test_inverse_skolem_no_leak () =
  (* certain answers never contain invented elements *)
  let q = Parse.query ~goal:"G" "G(x) <- E(x,y)." in
  let rw = Inverse_rules.rewrite q [ path_view ] in
  let j = Instance.of_list [ Fact.make "P2" [ c "a"; c "b" ] ] in
  let out = Dl_engine.eval rw j in
  check_int "only a" 1 (List.length out);
  check_bool "is a" true (Const.equal (List.hd out).(0) (c "a"))

let test_inverse_guarded () =
  (* with guarding on, every non-inverse rule carries a view atom *)
  let rw = Inverse_rules.rewrite ~guard:true tc_query [ atomic_e ] in
  check_bool "has rules" true (List.length rw.Datalog.program > 0);
  let rw_unguarded = Inverse_rules.rewrite ~guard:false tc_query [ atomic_e ] in
  (* both compute the same certain answers *)
  let img = View.image [ atomic_e ] inst in
  check_bool "guarded = unguarded" true
    (List.length (Dl_engine.eval rw img)
    = List.length (Dl_engine.eval rw_unguarded img))

let test_inverse_unsupported () =
  let u = View.ucq "U" (Parse.ucq "v(x) <- E(x,y). v(x) <- E(y,x).") in
  (match Inverse_rules.rewrite tc_query [ u ] with
  | exception Unsupported.Error _ -> ()
  | _ -> Alcotest.fail "expected Unsupported")

let test_certain_answers_monotone () =
  let j1 = Instance.of_list [ Fact.make "P2" [ c "a"; c "b" ] ] in
  let j2 = Instance.add (Fact.make "P2" [ c "b"; c "a" ]) j1 in
  let q = Parse.query ~goal:"G" "G(x,y) <- E(x,z), E(z,y)." in
  let o1 = Inverse_rules.certain_answers q [ path_view ] j1 in
  let o2 = Inverse_rules.certain_answers q [ path_view ] j2 in
  check_bool "monotone" true (List.length o1 <= List.length o2)

(* randomized: inverse-rules rewriting of Example 1 agrees with the query
   through the views *)
let example1_query =
  Parse.query ~goal:"GoalQ"
    "GoalQ <- U1(x), W1(x).
     W1(x) <- T(x,y,z), B(z,w), B(y,w), W1(w).
     W1(x) <- U2(x)."

let example1_views =
  [
    View.cq "V0" (Parse.cq "v(x,w) <- T(x,y,z), B(z,w), B(y,w)");
    View.cq "V1" (Parse.cq "v(x) <- U1(x)");
    View.cq "V2" (Parse.cq "v(x) <- U2(x)");
  ]

let prop_example1_inverse_rules =
  let schema = Schema.of_list [ ("T", 3); ("B", 2); ("U1", 1); ("U2", 1) ] in
  let insts = Md_rewrite.random_instances ~n:25 ~size:12 ~seed:42 schema in
  QCheck.Test.make ~name:"Example 1: inverse rules = query through views"
    ~count:1 QCheck.unit (fun () ->
      let rw = Inverse_rules.rewrite example1_query example1_views in
      Md_rewrite.verify_boolean example1_query rw example1_views insts)

(* ------------- one reading: the combined program ------------- *)

(* A random collection of CQ and UCQ views over E/2 and U/1, none of
   whose bodies names a view head, kept next to the CQs and UCQs it was
   built from.  Heads may repeat a variable. *)
type drawn = { views : View.collection; defs : (string * Cq.t list) list }

let collection_gen =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z"; "w" ] in
  let atom =
    oneof
      [
        map2 (fun a b -> Cq.atom "E" [ Cq.Var a; Cq.Var b ]) var var;
        map (fun a -> Cq.atom "U" [ Cq.Var a ]) var;
      ]
  in
  let cq arity =
    list_size (int_range 1 3) atom >>= fun body ->
    map
      (fun head -> Cq.make ~head body)
      (list_repeat arity (oneofl (Cq.vars (Cq.boolean body))))
  in
  let view i =
    int_bound 2 >>= fun arity ->
    list_size (int_range 1 3) (cq arity) >|= fun ds ->
    let name = Printf.sprintf "V%d" i in
    let v =
      match ds with [ q ] -> View.cq name q | ds -> View.ucq name (Ucq.make ds)
    in
    (v, (name, ds))
  in
  int_range 1 3 >>= fun n ->
  flatten_l (List.init n view) >|= fun vds ->
  { views = List.map fst vds; defs = List.map snd vds }

let small_instance_gen =
  let open QCheck.Gen in
  let elt = oneofl [ c "a"; c "b"; c "d"; c "e" ] in
  let fact =
    oneof
      [
        map2 (fun a b -> Fact.make "E" [ a; b ]) elt elt;
        map (fun a -> Fact.make "U" [ a ]) elt;
      ]
  in
  map Instance.of_list (list_size (int_bound 8) fact)

let drawn_arb =
  QCheck.make
    ~print:(fun (d, i) ->
      Fmt.str "%a@.%a" View.pp_collection d.views Instance.pp i)
    QCheck.Gen.(pair collection_gen small_instance_gen)

let facts_of name tuples = List.map (Fact.of_array name) tuples

let datalog_views =
  [
    View.datalog "Tc"
      (Parse.query ~goal:"T" "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).");
    View.datalog "Even"
      (Parse.query ~goal:"P"
         "P(x,y) <- E(x,z), E(z,y). P(x,y) <- E(x,z), E(z,w), P(w,y).");
    View.datalog "Reach"
      (Parse.query ~goal:"R" "R(x) <- U(x). R(y) <- R(x), E(x,y).");
  ]

let prop_image_differential =
  QCheck.Test.make ~name:"image = per-view Cq/Ucq eval and naive Datalog"
    ~count:120 drawn_arb (fun (d, i) ->
      let per_view =
        List.concat_map
          (fun (name, ds) ->
            facts_of name
              (match ds with
              | [ q ] -> Cq.eval q i
              | ds -> Ucq.eval (Ucq.make ds) i))
          d.defs
      and naive =
        List.concat_map
          (fun (v : View.t) ->
            facts_of v.View.name
              (Dl_engine.eval ~strategy:Dl_engine.Naive v.View.program i))
          datalog_views
      in
      Instance.equal (View.image d.views i) (Instance.of_list per_view)
      && Instance.equal (View.image datalog_views i) (Instance.of_list naive))

let prop_approximations_are_disjuncts =
  QCheck.Test.make ~name:"CQ/UCQ view approximations = its disjuncts"
    ~count:120 drawn_arb (fun (d, _) ->
      let keys qs = List.sort_uniq compare (List.map Dl_approx.canonical_string qs) in
      List.for_all2
        (fun (name, approxs) (name', ds) -> name = name' && keys approxs = keys ds)
        (View.approximations d.views) d.defs)

let test_as_cq () =
  check_bool "CQ view" true (View.as_cq path_view <> None);
  check_bool "UCQ view" true
    (View.as_cq (View.ucq "U" (Parse.ucq "v(x) <- E(x,y). v(x) <- E(y,x).")) = None);
  check_bool "self-naming rule" true
    (View.as_cq (View.cq "T" (Parse.cq "t(x,y) <- E(x,z), T(z,y)")) = None);
  check_bool "empty collection" true (Instance.is_empty (View.image [] inst))

(* A head repeating a variable unfolds by unification: the canonical
   tests of the query "an edge into a loop" over [V(x,x) <- E(x,y)] find
   a failing test, in the library and through the service. *)
let rep_query =
  "P(x,y) <- E(x,y). P(x,y) <- E(x,z), P(z,y). G() <- P(x,y), E(y,y)."

let test_repeated_head_view () =
  let q = Parse.query ~goal:"G" rep_query in
  let vs = Parse.views "V(x,x) <- E(x,y)." in
  check_bool "library: not determined" true
    (match Md_decide.decide q vs with
    | Md_decide.Not_determined_cert (Some _) -> true
    | _ -> false);
  let svc = Svc_service.create () in
  let h l = Svc_proto.print_response (Svc_service.handle_line svc l) in
  ignore (h ("1 load s program r goal G : " ^ rep_query));
  ignore (h "2 load s views v : V(x,x) <- E(x,y).");
  Alcotest.(check string) "service: not determined" "3 ok not-determined"
    (h "3 mondet-test s r v")

let suite =
  [
    Alcotest.test_case "image" `Quick test_image;
    Alcotest.test_case "atomic" `Quick test_atomic;
    Alcotest.test_case "datalog view" `Quick test_datalog_view;
    Alcotest.test_case "def as datalog" `Quick test_def_as_datalog;
    Alcotest.test_case "schemas" `Quick test_schemas;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "split disconnected" `Quick test_split_disconnected;
    Alcotest.test_case "inverse: identity views" `Quick test_inverse_identity_views;
    Alcotest.test_case "inverse: path views" `Quick test_inverse_path_views;
    Alcotest.test_case "inverse: no skolem leak" `Quick test_inverse_skolem_no_leak;
    Alcotest.test_case "inverse: guarding" `Quick test_inverse_guarded;
    Alcotest.test_case "inverse: unsupported" `Quick test_inverse_unsupported;
    Alcotest.test_case "certain answers monotone" `Quick test_certain_answers_monotone;
    Alcotest.test_case "CQ form" `Quick test_as_cq;
    Alcotest.test_case "repeated head variable" `Quick test_repeated_head_view;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_example1_inverse_rules;
        prop_image_differential;
        prop_approximations_are_disjuncts;
      ]
