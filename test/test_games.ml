(* Tests for existential pebble games (k-consistency). *)

let check_bool = Alcotest.(check bool)

let tri = Parse.instance "E(a,b). E(b,c). E(c,a)."
let k2 = Parse.instance "E(u,v). E(v,u)."
let loop = Parse.instance "E(o,o)."
let path3 = Parse.instance "E(a,b). E(b,c). E(c,d)."

let test_hom_implies_game () =
  (* path3 → k2 (2-colourable), so duplicator wins every k *)
  check_bool "path3 ->2 k2" true (Pebble.duplicator_wins ~k:2 path3 k2);
  check_bool "path3 ->3 k2" true (Pebble.duplicator_wins ~k:3 path3 k2)

let test_triangle_vs_k2 () =
  (* classic: triangle is not 2-colourable but 2 pebbles can't tell *)
  check_bool "tri ->2 k2" true (Pebble.duplicator_wins ~k:2 tri k2);
  check_bool "tri not->3 k2" false (Pebble.duplicator_wins ~k:3 tri k2)

let test_loop_target () =
  (* everything maps into a loop *)
  check_bool "tri ->3 loop" true (Pebble.duplicator_wins ~k:3 tri loop);
  check_bool "path ->2 loop" true (Pebble.duplicator_wins ~k:2 path3 loop)

let test_empty_target () =
  check_bool "nonempty -> empty fails" false
    (Pebble.duplicator_wins ~k:2 tri Instance.empty)

let test_unary_mismatch () =
  let src = Parse.instance "U(a)." and dst = Parse.instance "W(b)." in
  check_bool "unary mismatch" false (Pebble.duplicator_wins ~k:1 src dst)

let test_family () =
  match Pebble.kconsistent ~k:2 path3 k2 with
  | None -> Alcotest.fail "expected family"
  | Some fam ->
      check_bool "nonempty" true (Pebble.family_size fam > 0);
      check_bool "contains empty map" true (Pebble.family_mem fam []);
      (* a ↦ u is a valid pebble placement *)
      check_bool "singleton" true
        (Pebble.family_mem fam [ (Const.named "a", Const.named "u") ])

let test_one_k () =
  check_bool "(1,2): path3 vs k2" true (Pebble.one_k_consistent ~k:2 path3 k2);
  check_bool "(1,2): tri vs k2" true (Pebble.one_k_consistent ~k:2 tri k2);
  check_bool "(1,1): unary mismatch" false
    (Pebble.one_k_consistent ~k:1
       (Parse.instance "U(a).")
       (Parse.instance "W(b)."))

(* Fact 1 (sanity direction): if some treewidth<k instance maps into I but
   not I', then I -/->k I'.  The triangle has treewidth 2 (< 3), maps into
   itself but not into K2: hence tri -/->3 K2 — checked above.  Here the
   converse direction on a sample: tri ->2 k2 and every width-≤1 (path)
   pattern mapping into tri maps into k2. *)
let test_fact1_sample () =
  let paths = [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun n ->
      let p =
        Instance.of_list
          (List.init n (fun i ->
               Fact.make "E"
                 [
                   Const.named (Printf.sprintf "p%d" i);
                   Const.named (Printf.sprintf "p%d" (i + 1));
                 ]))
      in
      if Hom.exists p tri then
        check_bool "path into k2 too" true (Hom.exists p k2))
    paths

(* property: homomorphism implies duplicator win; and wins are monotone
   downwards in k.  Instances mix a binary E (self-loops included), a
   unary U and a ternary T over five elements, and may be empty. *)
let inst_gen =
  QCheck.make ~print:(fun i -> Fmt.str "%a" Instance.pp i)
    QCheck.Gen.(
      let cg = map (fun i -> Const.named ("e" ^ string_of_int i)) (int_bound 4) in
      let fg =
        let* a = cg and* b = cg and* c = cg in
        frequency
          [
            (4, return (Fact.make "E" [ a; b ]));
            (1, return (Fact.make "E" [ a; a ]));
            (2, return (Fact.make "U" [ a ]));
            (1, return (Fact.make "T" [ a; b; c ]));
          ]
      in
      map Instance.of_list (list_size (int_range 0 6) fg))

let prop_hom_implies_win =
  QCheck.Test.make ~name:"I → I' implies I →k I'" ~count:25
    (QCheck.pair inst_gen inst_gen) (fun (a, b) ->
      if Hom.exists a b then Pebble.duplicator_wins ~k:2 a b else true)

let prop_win_antitone_k =
  QCheck.Test.make ~name:"→3 implies →2" ~count:20
    (QCheck.pair inst_gen inst_gen) (fun (a, b) ->
      if Pebble.duplicator_wins ~k:3 a b then Pebble.duplicator_wins ~k:2 a b
      else true)

(* [Pebble] against the sweep implementation it replaced: the same
   verdict, and when the Duplicator wins the same family — equal sizes,
   and every oracle member a member. *)
let agrees_with_oracle ~k a b =
  match (Pebble.kconsistent ~k a b, Pebble_oracle.kconsistent ~k a b) with
  | None, None -> true
  | Some fam, Some o ->
      Pebble.family_size fam = Pebble_oracle.family_size o
      && List.for_all (Pebble.family_mem fam) (Pebble_oracle.maps o)
  | _ -> false

let prop_oracle k =
  QCheck.Test.make
    ~name:(Printf.sprintf "k-consistency = sweep oracle (k=%d)" k)
    ~count:300 (QCheck.pair inst_gen inst_gen) (fun (a, b) ->
      agrees_with_oracle ~k a b)

let prop_one_k_oracle k =
  QCheck.Test.make
    ~name:(Printf.sprintf "(1,k) game = sweep oracle (k=%d)" k)
    ~count:150 (QCheck.pair inst_gen inst_gen) (fun (a, b) ->
      Pebble.one_k_consistent ~k a b = Pebble_oracle.one_k_consistent ~k a b)

let test_oracle_units () =
  (* a unary fact must never match a binary tuple of the target, nor a
     fact of another arity under the same name *)
  let u = Parse.instance "U(a)." in
  let e_all = Parse.instance "E(u,v). E(v,u). E(u,u). E(v,v)." in
  List.iter
    (fun k ->
      check_bool "U vs E-only target" false (Pebble.duplicator_wins ~k u e_all);
      check_bool "oracle agrees" true (agrees_with_oracle ~k u e_all))
    [ 1; 2 ];
  let e3 = Parse.instance "E(u,v,w). E(v,u,u)." in
  check_bool "E/2 vs E/3" false (Pebble.duplicator_wins ~k:2 path3 e3);
  check_bool "oracle agrees" true (agrees_with_oracle ~k:2 path3 e3);
  (* more pebbles than source elements play as three *)
  let tri_u = Parse.instance "E(a,b). E(b,c). E(c,a). U(a)." in
  let target = Parse.instance "E(u,v). E(v,w). E(w,u). E(u,u). U(v). U(u)." in
  List.iter
    (fun (a, b) ->
      check_bool "k=5 on 3 elements" true (agrees_with_oracle ~k:5 a b);
      check_bool "k=5 = k=3" (Pebble.duplicator_wins ~k:3 a b)
        (Pebble.duplicator_wins ~k:5 a b))
    [ (tri_u, target); (tri, k2); (tri, tri); (tri_u, tri) ]

let test_family_mem () =
  let c = Const.named in
  match (Pebble.kconsistent ~k:2 path3 k2, Pebble_oracle.kconsistent ~k:2 path3 k2) with
  | Some fam, Some o ->
      let sorted = [ (c "a", c "u"); (c "b", c "v") ] in
      List.iter
        (fun (name, assoc, expected) ->
          check_bool name expected (Pebble.family_mem fam assoc);
          check_bool (name ^ " (oracle)") expected (Pebble_oracle.family_mem o assoc))
        [
          ("sorted", sorted, true);
          ("unsorted = sorted", List.rev sorted, true);
          ("not a hom", [ (c "b", c "u"); (c "a", c "u") ], false);
          ("source constant outside", [ (c "zz", c "u") ], false);
          ("target constant outside", [ (c "a", c "zz") ], false);
          ("non-functional", [ (c "a", c "u"); (c "a", c "v") ], false);
          ("above k", [ (c "a", c "u"); (c "b", c "v"); (c "c", c "u") ], false);
        ]
  | _ -> Alcotest.fail "expected families"

let test_too_big () =
  let path n =
    Instance.of_list
      (List.init n (fun i ->
           Fact.make "E"
             [
               Const.named (Printf.sprintf "q%d" i);
               Const.named (Printf.sprintf "q%d" (i + 1));
             ]))
  in
  let p = path 99 in
  let refused k =
    match Pebble.duplicator_wins ~k p p with
    | _ -> false
    | exception Invalid_argument msg ->
        String.starts_with ~prefix:"Pebble.kconsistent: " msg
  in
  (* 100 elements: C(100,3)·100^3 maps; k = 1000 plays as 100 and its
     family size overflows an int *)
  check_bool "k=3 refused" true (refused 3);
  check_bool "k=1000 refused" true (refused 1000);
  check_bool "k=1 still runs" true (Pebble.duplicator_wins ~k:1 p p)

let suite =
  [
    Alcotest.test_case "hom implies game" `Quick test_hom_implies_game;
    Alcotest.test_case "triangle vs K2" `Quick test_triangle_vs_k2;
    Alcotest.test_case "loop target" `Quick test_loop_target;
    Alcotest.test_case "empty target" `Quick test_empty_target;
    Alcotest.test_case "unary mismatch" `Quick test_unary_mismatch;
    Alcotest.test_case "winning family" `Quick test_family;
    Alcotest.test_case "(1,k) games" `Quick test_one_k;
    Alcotest.test_case "Fact 1 sample" `Quick test_fact1_sample;
    Alcotest.test_case "oracle units" `Quick test_oracle_units;
    Alcotest.test_case "family membership" `Quick test_family_mem;
    Alcotest.test_case "family too big" `Quick test_too_big;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      ([ prop_hom_implies_win; prop_win_antitone_k ]
      @ List.map prop_oracle [ 1; 2; 3 ]
      @ List.map prop_one_k_oracle [ 1; 2 ])
