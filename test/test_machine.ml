(* Tests for the Turing-machine substrate and the Theorem 9 construction. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_zigzag () =
  check_bool "accepts" true (Tm.accepts Tm.zigzag "000");
  check_int "linear steps" 4 (Tm.steps Tm.zigzag "000");
  check_int "empty input" 1 (Tm.steps Tm.zigzag "")

let test_counter_exponential () =
  let s2 = Tm.steps Tm.binary_counter "00" in
  let s4 = Tm.steps Tm.binary_counter "0000" in
  let s6 = Tm.steps Tm.binary_counter "000000" in
  check_bool "doubling steps" true (s4 > 3 * s2 && s6 > 3 * s4);
  check_bool "accepts" true (Tm.accepts Tm.binary_counter "0000")

let test_counter_parity () =
  let m = Tm.binary_counter_parity in
  check_bool "even accepts" true (Tm.accepts m "00");
  check_bool "odd rejects" false (Tm.accepts m "000");
  check_bool "still halts" true (Tm.steps m "000" > 8)

let test_step_mechanics () =
  let m = Tm.binary_counter in
  let c0 = Tm.initial m "01" in
  check_bool "head on first" true (c0.Tm.head = '0');
  match Tm.step m c0 with
  | None -> Alcotest.fail "should step"
  | Some c1 ->
      check_bool "moved right" true (c1.Tm.head = '1');
      check_bool "state ret" true (String.equal c1.Tm.state "ret")

let test_config_cells () =
  let m = Tm.binary_counter in
  let c = Tm.initial m "01" in
  let cells = Tm.config_cells m ~width:4 c in
  check_int "width" 4 (List.length cells);
  check_bool "head cell" true (List.hd cells = "ret|0");
  check_bool "padded blank" true (List.nth cells 3 = "_")

let test_encode_input () =
  let i = Encode.encode_input "01" in
  check_int "succ chain" 3 (List.length (Instance.tuples i "Succ"));
  check_int "letters" 1 (List.length (Instance.tuples i (Encode.input_rel '0')));
  check_bool "markers" true
    (Instance.tuples i "InpBegin" <> [] && Instance.tuples i "InpEnd" <> [])

let test_encode_run_coherent () =
  let m = Tm.zigzag in
  let enc = Encode.encode_run m "00" in
  (* one RunEnd, a nonempty Align relation, an accept cell *)
  check_int "one run end" 1 (List.length (Instance.tuples enc "RunEnd"));
  check_bool "aligned" true (Instance.tuples enc "Align" <> []);
  let acc_rel = Encode.cell_rel "acc|_" in
  check_bool "accept cell present" true (Instance.tuples enc acc_rel <> [])

let test_query_detects_accepting_run () =
  let m = Tm.zigzag in
  let q = Th9.query m in
  check_bool "accepting run" true
    (Dl_engine.holds_boolean q (Encode.encode_run m "00"));
  check_bool "input only" false
    (Dl_engine.holds_boolean q (Encode.encode_input "00"))

let test_query_rejecting_run () =
  let m = Tm.binary_counter_parity in
  let q = Th9.query m in
  check_bool "rejecting run: Q false" false
    (Dl_engine.holds_boolean q (Encode.encode_run m "0"));
  check_bool "accepting run: Q true" true
    (Dl_engine.holds_boolean q (Encode.encode_run m "00"))

let test_views_and_decode () =
  let m = Tm.binary_counter in
  let vs = Th9.views m in
  let img = View.image vs (Encode.encode_run m "00") in
  check_bool "prerun flagged" true (Instance.tuples img "Vprerun" <> []);
  check_bool "decode" true (Th9.decode_input img = Some "00");
  let img_inp = View.image vs (Encode.encode_input "01") in
  check_bool "no prerun on input only" true (Instance.tuples img_inp "Vprerun" = []);
  check_bool "decode input" true (Th9.decode_input img_inp = Some "01")

let test_separator_agreement () =
  (* Q(I) = separator(V(I)) on run encodings — the monotonic-determinacy
     identity the construction relies on (determinism of the machine) *)
  let m = Tm.binary_counter_parity in
  let q = Th9.query m and vs = Th9.views m in
  List.iter
    (fun w ->
      let i = Encode.encode_run m w in
      check_bool ("agree on " ^ w) true
        (Dl_engine.holds_boolean q i
        = Th9.simulating_separator m (View.image vs i)))
    [ "0"; "00"; "000" ];
  (* and on input-only instances *)
  let i = Encode.encode_input "00" in
  check_bool "input-only agree" true
    (Dl_engine.holds_boolean (Th9.query m) i
    = Th9.simulating_separator m (View.image vs i))

let suite =
  [
    Alcotest.test_case "zigzag" `Quick test_zigzag;
    Alcotest.test_case "counter exponential" `Quick test_counter_exponential;
    Alcotest.test_case "counter parity" `Quick test_counter_parity;
    Alcotest.test_case "step mechanics" `Quick test_step_mechanics;
    Alcotest.test_case "config cells" `Quick test_config_cells;
    Alcotest.test_case "encode input" `Quick test_encode_input;
    Alcotest.test_case "encode run" `Quick test_encode_run_coherent;
    Alcotest.test_case "query detects accept" `Quick test_query_detects_accepting_run;
    Alcotest.test_case "query vs rejecting run" `Quick test_query_rejecting_run;
    Alcotest.test_case "views and decode" `Quick test_views_and_decode;
    Alcotest.test_case "separator agreement" `Quick test_separator_agreement;
  ]
