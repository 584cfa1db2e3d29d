(* Parser tests. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_rule () =
  let r = Parse.rule "W1(x) <- T(x,y,z), B(z,w), B(y,w), W1(w)." in
  check_int "four body atoms" 4 (List.length r.Datalog.body);
  check_bool "head" true (r.Datalog.head.Cq.rel = "W1");
  (* ':-' is accepted too *)
  let r2 = Parse.rule "W1(x) :- T(x,y,z), B(z,w), B(y,w), W1(w)" in
  check_bool "same" true (r = r2)

let test_nullary () =
  let r = Parse.rule "Goal <- U1(x), W1(x)." in
  check_int "nullary head" 0 (List.length r.Datalog.head.Cq.args);
  let r2 = Parse.rule "Goal() <- U1(x), W1(x)." in
  check_bool "parens optional" true (r = r2)

let test_constants () =
  let r = Parse.rule "P(x) <- E(x,'b')" in
  (match List.hd r.Datalog.body with
  | { Cq.args = [ Cq.Var "x"; Cq.Cst c ]; _ } ->
      check_bool "const b" true (Const.equal c (Const.named "b"))
  | _ -> Alcotest.fail "bad parse")

let test_instance () =
  let i = Parse.instance "E(a,b). E(b,c). U(a). Zero." in
  check_int "four facts" 4 (Instance.size i);
  check_bool "nullary fact" true (Instance.mem (Fact.make "Zero" []) i)

let test_comments () =
  let i = Parse.instance "E(a,b). % an edge\nU(a)." in
  check_int "comment skipped" 2 (Instance.size i)

let test_program () =
  let p = Parse.program "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)." in
  check_int "two rules" 2 (List.length p)

let test_cq_ucq () =
  let q = Parse.cq "q(x,y) <- E(x,z), E(z,y)" in
  check_int "arity" 2 (Cq.arity q);
  let u = Parse.ucq "q(x) <- U(x). q(x) <- V(x)." in
  check_int "disjuncts" 2 (List.length u.Ucq.disjuncts)

let test_errors () =
  let raises s f =
    match f () with
    | exception Parse.Error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected error: " ^ s)
  in
  raises "unterminated quote" (fun () -> Parse.rule "P(x) <- E(x,'b");
  raises "head var not in body" (fun () -> Parse.rule "P(x) <- E(y,z)");
  raises "garbage" (fun () -> Parse.program "P(x) <- @");
  raises "ucq mixed heads" (fun () -> Parse.ucq "q(x) <- U(x). r(x) <- V(x).")

(* error messages carry the 1-based line/column of the offending token *)
let test_error_positions () =
  let msg f =
    match f () with
    | exception Parse.Error m -> m
    | _ -> Alcotest.fail "expected Parse.Error"
  in
  let starts_with prefix m =
    check_bool
      (Printf.sprintf "%S starts with %S" m prefix)
      true
      (String.length m >= String.length prefix
      && String.sub m 0 (String.length prefix) = prefix)
  in
  starts_with "line 2, column 3: unexpected character"
    (msg (fun () -> Parse.program "P(x) <-\n  @"));
  starts_with "line 1, column 13: unterminated quote"
    (msg (fun () -> Parse.rule "P(x) <- E(x,'b"));
  starts_with "line 1, column 13: expected term, found ')'"
    (msg (fun () -> Parse.rule "P(x) <- E(x,)"));
  starts_with "line 1, column 16: trailing input at ')'"
    (msg (fun () -> Parse.rule "P(x) <- E(x,y) )"));
  starts_with "line 2, column 8: expected ',' or ')'"
    (msg (fun () -> Parse.instance "E(a,b).\nE(a, b c)."))

let test_views () =
  let vs = Parse.views "V(x) <- U(x). W(x,y) <- E(x,y). W(x,y) <- E(y,x)." in
  check_int "two views" 2 (List.length vs);
  let names = List.map (fun v -> v.View.name) vs in
  check_bool "names" true (List.sort compare names = [ "V"; "W" ]);
  let w = List.find (fun v -> v.View.name = "W") vs in
  check_int "W has 2 rules" 2 (List.length w.View.program.Datalog.program);
  check_bool "W is no CQ" true (View.as_cq w = None);
  (* a constant in a view head is a Parse.Error naming the view now (the
     surface syntax can't produce one — Datalog.rule rejects head
     constants — so exercise views_of_program on a hand-built rule) *)
  let bad_rule =
    {
      Datalog.head = Cq.atom "V" [ Cq.Var "x"; Cq.Cst (Const.named "a") ];
      body = [ Cq.atom "E" [ Cq.Var "x"; Cq.Var "y" ] ];
    }
  in
  match Parse.views_of_program [ bad_rule ] with
  | exception Parse.Error m ->
      check_bool
        (Printf.sprintf "%S names the view" m)
        true
        (String.length m >= 6 && String.sub m 0 6 = "view V")
  | _ -> Alcotest.fail "expected Parse.Error for constant in view head"

(* A view must have a base case: some rule that fires from base
   relations alone, possibly through other views that have one. *)
let test_views_base_case () =
  let rejects name text =
    match Parse.views text with
    | exception Parse.Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names view %s" m name)
          true
          (String.starts_with ~prefix:("view " ^ name ^ " has no base case") m)
    | _ -> Alcotest.failf "%s: expected Parse.Error" text
  in
  rejects "E" "E(x,y) <- E(x,y).";
  rejects "A" "A(x) <- B(x). B(x) <- A(x).";
  rejects "B" "A(x) <- U(x). B(x) <- A(x), B(x).";
  Alcotest.(check int)
    "a view reading a grounded view loads" 2
    (List.length (Parse.views "A(x,y) <- E(x,y). B(x,y) <- A(x,z), A(z,y)."))

let suite =
  [
    Alcotest.test_case "rule" `Quick test_rule;
    Alcotest.test_case "nullary" `Quick test_nullary;
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "instance" `Quick test_instance;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "program" `Quick test_program;
    Alcotest.test_case "cq/ucq" `Quick test_cq_ucq;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "error positions" `Quick test_error_positions;
    Alcotest.test_case "views" `Quick test_views;
    Alcotest.test_case "views need a base case" `Quick test_views_base_case;
  ]
