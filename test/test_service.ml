(* Decision-service tests: protocol round-trips, the LRU cache,
   cancellation tokens, golden request/response transcripts for every
   verb, deadline behaviour, and a large mixed two-session workload
   cross-checked against direct evaluation. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Golden transcripts: one fresh service, every verb, malformed lines,
   an instantly-expired deadline — and the server answering after it. *)

let golden =
  [
    ( "1 load s1 program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
       T(z,y).",
      "1 ok loaded program tc" );
    ( "2 load s1 program reach goal Goal : Goal() <- T(x,y). T(x,y) <- \
       E(x,y). T(x,y) <- E(x,z), T(z,y).",
      "2 ok loaded program reach" );
    ("3 load s1 views v : V(x,y) <- E(x,y).", "3 ok loaded views v");
    ("4 load s1 instance i : E(a,b). E(b,c).", "4 ok loaded instance i");
    ("5 load s1 instance vi : V(a,b). V(b,c).", "5 ok loaded instance vi");
    ("6 eval s1 tc i", "6 ok a,b;a,c;b,c");
    ("7 eval s1 reach i", "7 ok true");
    ("8 holds s1 tc i (a,c)", "8 ok true");
    ("9 holds s1 tc i (c,a)", "9 ok false");
    ("10 eval s1 tc i", "10 ok a,b;a,c;b,c");
    ("11 mondet-test s1 reach v", "11 ok no-failure-up-to 3");
    ("12 mondet-test s1 reach v depth=2", "12 ok no-failure-up-to 1");
    ("13 certain-answers s1 reach v vi", "13 ok true");
    ("14 rewrite-check s1 reach v samples=5", "14 ok verified samples=5");
    ( "15 stats",
      "15 ok hits=1 misses=8 entries=8 evictions=0 sessions=1 requests=15 \
       timeouts=0" );
    (* malformed lines still get addressed error responses *)
    ("16 bogus s1 x y", "16 error unknown verb \"bogus\"");
    ("17 eval s1 tc", "17 error unknown verb \"eval\"");
    ( "18 holds s1 tc i a,c",
      "18 error malformed tuple \"a,c\" (expected (c1,...,cn))" );
    ( "19 eval s1 tc i deadline=xx",
      "19 error option deadline needs a non-negative integer, got \"xx\"" );
    ("20 eval s1 nosuch i", "20 error no program \"nosuch\" in session \"s1\"");
    ("21 eval nosession tc i", "21 error unknown session \"nosession\"");
    ("22 holds s1 tc i (a)", "22 error tuple has 1 constants, goal arity is 2");
    (* a zero deadline expires before any work, deterministically *)
    ("23 eval s1 tc i deadline=0", "23 timeout");
    (* ... and the server keeps answering, cache unpoisoned *)
    ("24 eval s1 tc i", "24 ok a,b;a,c;b,c");
    ( "25 stats",
      "25 ok hits=2 misses=9 entries=8 evictions=0 sessions=1 requests=25 \
       timeouts=1" );
  ]

let test_golden () =
  let svc = Svc_service.create () in
  List.iter
    (fun (req, expected) ->
      let resp = Svc_service.handle_line svc req in
      check_string req expected (Svc_proto.print_response resp))
    golden

(* ------------------------------------------------------------------ *)
(* Protocol round-trip: printable requests parse back to themselves. *)

let word_gen =
  QCheck.Gen.(
    let c = oneofl [ 'a'; 'b'; 'c'; 'x'; 'y'; 'Z'; '0'; '_'; '-' ] in
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 6) c))

let text_gen =
  QCheck.Gen.oneofl
    [
      "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).";
      "E(a,b). E(b,c).";
      "V(x) <- U(x). V(x) <- W(x).";
      "Goal() <- T(x,y).";
    ]

let rpq_text_gen =
  QCheck.Gen.oneofl
    [
      "q = (k|k^)*.f ;";
      "vk = k|k^ ; vf = f ;";
      "astar = a* ;";
    ]

(* the RPQ verbs' optional trailing tuple, empty tuples included — the
   printer emits [()] and the parser takes it back *)
let opt_tuple_gen =
  QCheck.Gen.(opt (list_size (int_bound 3) word_gen))

let verb_gen =
  QCheck.Gen.(
    let opt_small = opt (int_bound 9) in
    frequency
      [
        ( 2,
          map3
            (fun kind name text -> Svc_proto.Load { kind; name; text })
            (oneof
               [
                 map (fun g -> Svc_proto.Kprogram g) word_gen;
                 return Svc_proto.Kviews;
                 return Svc_proto.Kinstance;
               ])
            word_gen text_gen );
        ( 2,
          map2
            (fun instance text -> Svc_proto.Assert { instance; text })
            word_gen text_gen );
        ( 2,
          map2
            (fun instance text -> Svc_proto.Retract { instance; text })
            word_gen text_gen );
        ( 3,
          map2
            (fun program instance -> Svc_proto.Eval { program; instance })
            word_gen word_gen );
        ( 3,
          map3
            (fun program instance tuple ->
              Svc_proto.Holds { program; instance; tuple })
            word_gen word_gen
            (list_size (int_bound 3) word_gen) );
        ( 2,
          map3
            (fun program views depth ->
              Svc_proto.Mondet_test { program; views; depth })
            word_gen word_gen opt_small );
        ( 2,
          map3
            (fun program views instance ->
              Svc_proto.Certain_answers { program; views; instance })
            word_gen word_gen word_gen );
        ( 2,
          map3
            (fun program views samples ->
              Svc_proto.Rewrite_check { program; views; samples })
            word_gen word_gen opt_small );
        ( 2,
          map2
            (fun name text -> Svc_proto.Rpq_load { name; text })
            word_gen rpq_text_gen );
        ( 2,
          map3
            (fun rpq instance tuple ->
              Svc_proto.Rpq_eval { rpq; instance; tuple })
            word_gen word_gen opt_tuple_gen );
        ( 2,
          map3
            (fun (rpq, views) instance tuple ->
              Svc_proto.Rpq_rewrite { rpq; views; instance; tuple })
            (pair word_gen word_gen)
            word_gen opt_tuple_gen );
        (1, return Svc_proto.Stats);
      ])

let request_gen =
  QCheck.Gen.(
    verb_gen >>= fun verb ->
    word_gen >>= fun id ->
    word_gen >>= fun sess ->
    opt (int_bound 999) >>= fun deadline_ms ->
    let session =
      match verb with Svc_proto.Stats -> None | _ -> Some sess
    in
    return { Svc_proto.id; session; deadline_ms; verb })

let request_arb =
  QCheck.make ~print:Svc_proto.print_request request_gen

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"protocol request print/parse round-trip" ~count:500
    request_arb (fun req ->
      match Svc_proto.parse_request (Svc_proto.print_request req) with
      | Ok req' -> req' = req
      | Error (_, m) -> QCheck.Test.fail_reportf "parse failed: %s" m)

let response_gen =
  QCheck.Gen.(
    word_gen >>= fun rid ->
    let body = map (String.concat " ") (list_size (int_bound 4) word_gen) in
    oneof
      [
        map (fun b -> { Svc_proto.rid; result = Svc_proto.Ok_ b }) body;
        map (fun b -> { Svc_proto.rid; result = Svc_proto.Error_ b }) body;
        return { Svc_proto.rid; result = Svc_proto.Timeout };
        return { Svc_proto.rid; result = Svc_proto.Busy };
      ])

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"protocol response print/parse round-trip" ~count:300
    (QCheck.make ~print:Svc_proto.print_response response_gen) (fun resp ->
      match Svc_proto.parse_response (Svc_proto.print_response resp) with
      | Ok resp' -> resp' = resp
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s" m)

(* ------------------------------------------------------------------ *)
(* LRU cache unit tests. *)

let test_cache_lru () =
  let c = Svc_cache.create 2 in
  Svc_cache.add c "a" "1";
  Svc_cache.add c "b" "2";
  check_bool "a miss before hit" true (Svc_cache.find c "zz" = None);
  check_bool "a hits" true (Svc_cache.find c "a" = Some "1");
  (* adding c evicts b (least recently used; a was refreshed) *)
  Svc_cache.add c "c" "3";
  check_int "entries at capacity" 2 (Svc_cache.entries c);
  check_int "one eviction" 1 (Svc_cache.evictions c);
  check_bool "b evicted" false (Svc_cache.mem c "b");
  check_bool "a kept" true (Svc_cache.mem c "a");
  check_bool "c kept" true (Svc_cache.mem c "c");
  check_int "hits" 1 (Svc_cache.hits c);
  (* find counted the zz miss *)
  check_int "misses" 1 (Svc_cache.misses c);
  (* re-adding an existing key refreshes without eviction *)
  Svc_cache.add c "a" "1'";
  check_int "still two entries" 2 (Svc_cache.entries c);
  check_bool "updated" true (Svc_cache.find c "a" = Some "1'")

(* ------------------------------------------------------------------ *)
(* Cancellation tokens. *)

let test_cancel () =
  check_bool "none never cancelled" false (Dl_cancel.cancelled Dl_cancel.none);
  Dl_cancel.cancel Dl_cancel.none;
  check_bool "none immune to cancel" false
    (Dl_cancel.cancelled Dl_cancel.none);
  let t = Dl_cancel.token () in
  check_bool "fresh token live" false (Dl_cancel.cancelled t);
  Dl_cancel.cancel t;
  check_bool "cancelled after cancel" true (Dl_cancel.cancelled t);
  let d = Dl_cancel.with_deadline_ms 0 in
  check_bool "zero deadline expired" true (Dl_cancel.cancelled d);
  (match Dl_cancel.protect d (fun () -> Dl_cancel.check d) with
  | Error `Cancelled -> ()
  | Ok () -> Alcotest.fail "expected cancellation");
  let far = Dl_cancel.with_deadline_ms 1_000_000 in
  check_bool "far deadline live" false (Dl_cancel.cancelled far)

(* a 1 ms deadline on a genuinely large fixpoint times out at a round
   boundary, and the service keeps answering afterwards *)
let test_deadline_large_fixpoint () =
  let svc = Svc_service.create () in
  let n = 400 in
  let edges =
    String.concat " "
      (List.init (n - 1) (fun i -> Printf.sprintf "E(n%d,n%d)." i (i + 1)))
  in
  let feed line = Svc_proto.print_response (Svc_service.handle_line svc line) in
  ignore
    (feed
       "1 load s program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
        T(z,y).");
  ignore (feed ("2 load s instance big : " ^ edges));
  check_string "1ms deadline times out" "3 timeout"
    (feed "3 eval s tc big deadline=1");
  check_string "still answering" "4 ok true"
    (feed "4 holds s tc big (n0,n3)");
  check_int "timeout counted" 1 (Svc_service.timeouts svc)

(* ------------------------------------------------------------------ *)
(* Mutation verbs: assert/retract against a maintained materialization,
   covering the edge cases — retract of a never-asserted fact, retract
   of a base fact that is also derivable, an asserted derived fact
   surviving the loss of its support, and deterministic deadline=0. *)

let test_mutations () =
  let svc = Svc_service.create () in
  let h l = Svc_proto.print_response (Svc_service.handle_line svc l) in
  ignore
    (h
       "1 load m1 program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
        T(z,y).");
  ignore (h "2 load m1 instance i : E(a,b). E(b,c).");
  (* the cold eval registers the materialization the mutations maintain *)
  check_string "cold eval" "3 ok a,b;a,c;b,c" (h "3 eval m1 tc i");
  check_string "assert" "4 ok added=1 size=3 maintained=1"
    (h "4 assert m1 i : E(c,d).");
  check_string "eval after assert" "5 ok a,b;a,c;a,d;b,c;b,d;c,d"
    (h "5 eval m1 tc i");
  check_string "retract absent is a no-op" "6 ok removed=0 size=3 maintained=1"
    (h "6 retract m1 i : E(q,q).");
  (* pin a derived fact into the base, then cut its derivation support *)
  check_string "assert derived" "7 ok added=1 size=4 maintained=1"
    (h "7 assert m1 i : T(a,c).");
  check_string "cut support" "8 ok removed=1 size=3 maintained=1"
    (h "8 retract m1 i : E(b,c).");
  check_string "pinned fact survives" "9 ok true" (h "9 holds m1 tc i (a,c)");
  check_string "severed closure gone" "10 ok false"
    (h "10 holds m1 tc i (b,c)");
  (* retract a base fact that is also derivable: membership persists *)
  check_string "re-add support" "11 ok added=1 size=4 maintained=1"
    (h "11 assert m1 i : E(b,c).");
  check_string "retract derivable base" "12 ok removed=1 size=3 maintained=1"
    (h "12 retract m1 i : T(a,c).");
  check_string "still derived" "13 ok true" (h "13 holds m1 tc i (a,c)");
  (* errors: mutations need existing objects, and parse errors surface *)
  check_string "unknown instance"
    "14 error no instance \"zz\" in session \"m1\""
    (h "14 assert m1 zz : E(a,b).");
  check_string "unknown session" "15 error unknown session \"zz\""
    (h "15 assert zz i : E(a,b).");
  check_string "missing payload"
    "16 error assert needs a ' : ' payload of facts" (h "16 assert m1 i");
  (* deadline=0 is decided before any work: timeout, nothing mutated *)
  check_string "deadline 0" "17 timeout"
    (h "17 assert m1 i deadline=0 : E(x,y).");
  check_string "instance untouched" "18 ok false"
    (h "18 holds m1 tc i (x,y)")

(* A tiny deadline racing a genuinely large maintenance fixpoint: either
   the repair finishes in time (ok) or it is cancelled (timeout) — both
   are legal — but the session must stay consistent either way: the
   mutation is all-or-nothing and follow-up answers match whichever
   outcome was reported. *)
let test_mutation_deadline_race () =
  let svc = Svc_service.create () in
  let h l = Svc_service.handle_line svc l in
  let p l = Svc_proto.print_response (h l) in
  let n = 400 in
  let edges =
    String.concat " "
      (List.init (n - 1) (fun i -> Printf.sprintf "E(n%d,n%d)." i (i + 1)))
  in
  ignore
    (p
       "1 load s program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
        T(z,y).");
  ignore (p ("2 load s instance big : " ^ edges));
  check_string "seed fact absent" "3 ok false" (p "3 holds s tc big (n5,n0)");
  (* closing the cycle makes the closure quadratic: plenty of rounds for
     the 1 ms deadline to expire at — but it may also just finish *)
  let r = h (Printf.sprintf "4 assert s big deadline=1 : E(n%d,n0)." (n - 1)) in
  (match r.Svc_proto.result with
  | Svc_proto.Ok_ _ ->
      check_string "mutation landed: edge closed the cycle" "5 ok true"
        (p "5 holds s tc big (n5,n0)")
  | Svc_proto.Timeout ->
      check_string "mutation cancelled: instance untouched" "5 ok false"
        (p "5 holds s tc big (n5,n0)")
  | _ -> Alcotest.fail "expected ok or timeout");
  (* whatever happened, the service keeps answering coherently *)
  check_string "still consistent" "6 ok true" (p "6 holds s tc big (n0,n5)")

(* ------------------------------------------------------------------ *)
(* Mixed two-session workload, 25 rounds through [handle_lines],
   cross-checked request by request against direct evaluation. *)

let chain n =
  String.concat " "
    (List.init (n - 1) (fun i -> Printf.sprintf "E(m%d,m%d)." i (i + 1)))

let cycle n =
  String.concat " "
    (List.init n (fun i -> Printf.sprintf "E(c%d,c%d)." i ((i + 1) mod n)))

let tc_text = "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
let hop_text = "H(x,y) <- E(x,z), E(z,y)."

let format_tuples q i =
  let q_tuples = Dl_engine.eval ~strategy:Dl_engine.Naive q i in
  if Datalog.goal_arity q = 0 then if q_tuples <> [] then "true" else "false"
  else
    match q_tuples with
    | [] -> "none"
    | tuples ->
        tuples
        |> List.map (fun t ->
               String.concat "," (List.map Const.to_string (Array.to_list t)))
        |> List.sort_uniq compare
        |> String.concat ";"

let test_mixed_workload () =
  let svc = Svc_service.create ~cache_capacity:256 () in
  let sessions = [ "s1"; "s2" ] in
  let progs = [ ("tc", "T", tc_text); ("hop", "H", hop_text) ] in
  let insts =
    [
      ("ch4", chain 4); ("ch6", chain 6); ("cy5", cycle 5); ("cy7", cycle 7);
    ]
  in
  (* oracle objects, via the library directly (what the one-shot CLI
     runs) *)
  let oracle_q =
    List.map (fun (pn, goal, text) -> (pn, Parse.query ~goal text)) progs
  in
  let oracle_i = List.map (fun (iname, text) -> (iname, Parse.instance text)) insts in
  let expected_eval pn iname =
    format_tuples (List.assoc pn oracle_q) (List.assoc iname oracle_i)
  in
  let expected_holds pn iname tuple =
    let q = List.assoc pn oracle_q and i = List.assoc iname oracle_i in
    if
      Dl_engine.holds ~strategy:Dl_engine.Naive q i
        (Array.of_list (List.map Const.named tuple))
    then "true"
    else "false"
  in
  (* load everything into both sessions *)
  let loads =
    List.concat_map
      (fun s ->
        List.map
          (fun (pn, goal, text) ->
            Printf.sprintf "l-%s-%s load %s program %s goal %s : %s" s pn s pn
              goal text)
          progs
        @ List.map
            (fun (iname, text) ->
              Printf.sprintf "l-%s-%s load %s instance %s : %s" s iname s
                iname text)
            insts)
      sessions
  in
  List.iter
    (fun line ->
      match (Svc_service.handle_line svc line).Svc_proto.result with
      | Svc_proto.Ok_ _ -> ()
      | r ->
          Alcotest.failf "load failed: %s -> %s" line
            (Svc_proto.print_response { Svc_proto.rid = "x"; result = r }))
    loads;
  (* the mixed request stream: eval + holds per (session, program,
     instance), interleaved across both sessions, repeated; every round
     after the first hits the cache *)
  let tuples_for iname =
    if String.length iname >= 2 && iname.[0] = 'c' && iname.[1] = 'h' then
      [ [ "m0"; "m1" ]; [ "m1"; "m0" ] ]
    else [ [ "c0"; "c0" ]; [ "c0"; "missing" ] ]
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "q%d" !counter
  in
  let round_lines () =
    List.concat_map
      (fun (pn, _, _) ->
        List.concat_map
          (fun (iname, _) ->
            List.concat_map
              (fun s ->
                ( Printf.sprintf "%s eval %s %s %s" (fresh ()) s pn iname,
                  "ok " ^ expected_eval pn iname )
                :: List.map
                     (fun tuple ->
                       ( Printf.sprintf "%s holds %s %s %s (%s)" (fresh ()) s
                           pn iname
                           (String.concat "," tuple),
                         "ok " ^ expected_holds pn iname tuple ))
                     (tuples_for iname))
              sessions)
          insts)
      progs
  in
  let rounds = 25 in
  let total = ref (List.length loads) in
  for _ = 1 to rounds do
    let batch = round_lines () in
    total := !total + List.length batch;
    let responses = Svc_service.handle_lines svc (List.map fst batch) in
    List.iter2
      (fun (line, expected_body) resp ->
        let got =
          match resp.Svc_proto.result with
          | Svc_proto.Ok_ b -> "ok " ^ b
          | Svc_proto.Error_ m -> "error " ^ m
          | Svc_proto.Timeout -> "timeout"
          | Svc_proto.Busy -> "busy"
        in
        check_string line expected_body got)
      batch responses
  done;
  check_bool "at least 1000 requests" true (!total >= 1000);
  check_int "requests counted" !total (Svc_service.requests svc);
  check_int "no timeouts" 0 (Svc_service.timeouts svc);
  let cache = Svc_service.cache svc in
  check_bool "nonzero cache hit rate" true (Svc_cache.hits cache > 0);
  check_bool "hits dominate after warmup" true
    (Svc_cache.hits cache > Svc_cache.misses cache)

(* ------------------------------------------------------------------ *)
(* Differential keying: the fingerprint-keyed service must keep the
   cache trace of the printed-key scheme it replaced (Key_oracle).  The
   same 1200-request mixed workload as above goes through the service; a
   test-side cache fed the printed keys in the service's order — find,
   then store on a miss, request by request — must show the same hits,
   misses, entries and evictions after every round, and a printed-key
   hit must carry the service's answer. *)

let test_key_mode_differential () =
  let svc = Svc_service.create ~cache_capacity:256 () in
  let oracle = Svc_cache.create 256 in
  let sessions = [ "s1"; "s2" ] in
  let progs = [ ("tc", "T", tc_text); ("hop", "H", hop_text) ] in
  let insts =
    [
      ("ch4", chain 4); ("ch6", chain 6); ("cy5", cycle 5); ("cy7", cycle 7);
    ]
  in
  let loads =
    List.concat_map
      (fun s ->
        List.map
          (fun (pn, goal, text) ->
            Printf.sprintf "l-%s-%s load %s program %s goal %s : %s" s pn s pn
              goal text)
          progs
        @ List.map
            (fun (iname, text) ->
              Printf.sprintf "l-%s-%s load %s instance %s : %s" s iname s
                iname text)
            insts)
      sessions
  in
  List.iter
    (fun line ->
      match (Svc_service.handle_line svc line).Svc_proto.result with
      | Svc_proto.Ok_ _ -> ()
      | _ -> Alcotest.fail ("load failed: " ^ line))
    loads;
  (* the objects the loads created, as the oracle resolves them *)
  let prog =
    List.map (fun (pn, goal, text) -> (pn, Parse.query ~goal text)) progs
  in
  let inst =
    List.map (fun (iname, text) -> (iname, Parse.instance text)) insts
  in
  let tuples_for iname =
    if String.length iname >= 2 && iname.[0] = 'c' && iname.[1] = 'h' then
      [ [ "m0"; "m1" ]; [ "m1"; "m0" ] ]
    else [ [ "c0"; "c0" ]; [ "c0"; "missing" ] ]
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "q%d" !counter
  in
  (* (request line, printed key) *)
  let round_lines () =
    List.concat_map
      (fun (pn, _, _) ->
        let q = List.assoc pn prog in
        List.concat_map
          (fun (iname, _) ->
            let i = List.assoc iname inst in
            List.concat_map
              (fun s ->
                (Printf.sprintf "%s eval %s %s %s" (fresh ()) s pn iname,
                 Key_oracle.eval q i)
                :: List.map
                     (fun tuple ->
                       ( Printf.sprintf "%s holds %s %s %s (%s)" (fresh ()) s
                           pn iname
                           (String.concat "," tuple),
                         Key_oracle.holds q i tuple ))
                     (tuples_for iname))
              sessions)
          insts)
      progs
  in
  let trace c =
    Printf.sprintf "hits=%d misses=%d entries=%d evictions=%d"
      (Svc_cache.hits c) (Svc_cache.misses c) (Svc_cache.entries c)
      (Svc_cache.evictions c)
  in
  let total = ref (List.length loads) in
  for round = 1 to 25 do
    let reqs = round_lines () in
    total := !total + List.length reqs;
    let resps = Svc_service.handle_lines svc (List.map fst reqs) in
    List.iter2
      (fun (line, key) resp ->
        let body =
          match resp.Svc_proto.result with
          | Svc_proto.Ok_ b -> b
          | _ -> Alcotest.fail ("request failed: " ^ line)
        in
        match Svc_cache.find oracle key with
        | Some b -> check_string ("printed-key hit answers alike: " ^ line) b body
        | None -> Svc_cache.add oracle key body)
      reqs resps;
    check_string
      (Printf.sprintf "same cache trace after round %d" round)
      (trace oracle)
      (trace (Svc_service.cache svc))
  done;
  check_bool "1200-request workload" true (!total >= 1200);
  check_bool "hits dominate" true
    (Svc_cache.hits (Svc_service.cache svc)
     > Svc_cache.misses (Svc_service.cache svc))

(* ------------------------------------------------------------------ *)
(* Fingerprints against printed forms, one property per object kind:
   two objects fingerprint equal exactly when they print equal.  Each
   case pairs an object with a variant — the same text parsed again, a
   variable renaming, reordered rules or facts, a regrouped or swapped
   expression, or an unrelated object — and also loads both into one
   service under different names, in the same or another session: the
   request over the second is a cache hit exactly when the printed forms
   agree and the first succeeded. *)

let shuffle_gen l =
  QCheck.Gen.(
    list_repeat (List.length l) (int_bound 1000) >|= fun keys ->
    List.combine keys l
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd)

(* The second request, [run_b], after loading [load_a]/[load_b] and
   running [run_a]; true when it hit the cache.  [None] when [run_a]
   did not succeed. *)
let second_hits ~setup ~load_a ~load_b ~run_a ~run_b =
  let svc = Svc_service.create () in
  let ok line =
    match (Svc_service.handle_line svc line).Svc_proto.result with
    | Svc_proto.Ok_ _ -> true
    | _ -> false
  in
  List.iter
    (fun l -> if not (ok l) then failwith ("setup failed: " ^ l))
    (setup @ [ load_a; load_b ]);
  if not (ok run_a) then None
  else
    let hits = Svc_cache.hits (Svc_service.cache svc) in
    ignore (ok run_b);
    Some (Svc_cache.hits (Svc_service.cache svc) > hits)

(* [fp]/[printed] agree on the pair, and the service hit follows the
   printed forms *)
let keys_agree ~fp ~printed a b hit =
  let same = printed a = printed b in
  (fp a = fp b) = same
  && match hit with None -> true | Some h -> h = same

let session_gen = QCheck.Gen.(map (fun b -> if b then "s1" else "s2") bool)

(* rules over E/2 and the goal T/2; a term is a variable or a quoted
   constant, head variables come from the body *)
let vars = [ "x"; "y"; "z"; "w" ]

let rule_gen =
  QCheck.Gen.(
    let term =
      frequency
        [ (5, map (fun v -> `V v) (oneofl vars));
          (1, map (fun c -> `C c) (oneofl [ "c0"; "c1" ])) ]
    in
    let atom = triple (oneofl [ "E"; "E"; "T" ]) term term in
    let body_vars =
      List.concat_map (fun (_, a, b) ->
          List.filter_map (function `V v -> Some v | `C _ -> None) [ a; b ])
    in
    list_size (int_range 1 3) atom >>= fun body ->
    let body =
      if body_vars body = [] then ("E", `V "x", `V "y") :: body else body
    in
    let bvars = body_vars body in
    pair (oneofl bvars) (oneofl bvars) >|= fun head -> (head, body))

let body_text body =
  let term = function `V v -> v | `C c -> "'" ^ c ^ "'" in
  String.concat ", "
    (List.map
       (fun (r, a, b) -> Printf.sprintf "%s(%s,%s)" r (term a) (term b))
       body)

let rename_body v =
  let term = function `V x -> `V (v x) | c -> c in
  List.map (fun (r, a, b) -> (r, term a, term b))

let rules_text rules =
  String.concat " "
    (List.map
       (fun ((h1, h2), body) ->
         Printf.sprintf "T(%s,%s) <- %s." h1 h2 (body_text body))
       rules)

let rename_rules perm rules =
  let v x = List.assoc x perm in
  List.map (fun ((h1, h2), body) -> ((v h1, v h2), rename_body v body)) rules

let program_case_gen =
  QCheck.Gen.(
    list_size (int_range 1 3) rule_gen >>= fun rules ->
    oneof
      [
        return rules;
        map
          (fun p -> rename_rules (List.combine vars p) rules)
          (shuffle_gen vars);
        shuffle_gen rules;
        list_size (int_range 1 3) rule_gen;
      ]
    >>= fun variant ->
    session_gen >|= fun sess -> (rules_text rules, rules_text variant, sess))

let qcheck_program_keys =
  QCheck.Test.make ~name:"program fingerprints agree with printed forms"
    ~count:150
    (QCheck.make
       ~print:(fun (a, b, s) -> Printf.sprintf "%s | %s | %s" a b s)
       program_case_gen)
    (fun (a, b, sess) ->
      let hit =
        second_hits
          ~setup:[ "i1 load s1 instance i : E(c0,c1). E(c1,c0). E(c1,c2).";
                   "i2 load s2 instance i : E(c0,c1). E(c1,c0). E(c1,c2)." ]
          ~load_a:("la load s1 program pa goal T : " ^ a)
          ~load_b:(Printf.sprintf "lb load %s program pb goal T : %s" sess b)
          ~run_a:"qa eval s1 pa i"
          ~run_b:(Printf.sprintf "qb eval %s pb i" sess)
      in
      keys_agree ~fp:Datalog.fingerprint ~printed:Key_oracle.query
        (Parse.query ~goal:"T" a) (Parse.query ~goal:"T" b) hit)

let fact_gen =
  QCheck.Gen.(
    let c = oneofl [ "c0"; "c1"; "c2"; "c3" ] in
    oneof
      [
        map2 (fun a b -> Printf.sprintf "E(%s,%s)." a b) c c;
        map (fun a -> Printf.sprintf "F(%s)." a) c;
      ])

let instance_case_gen =
  QCheck.Gen.(
    list_size (int_range 1 6) fact_gen >>= fun facts ->
    oneof
      [
        return facts;
        shuffle_gen facts;
        (* a repeated fact changes the text, not the set *)
        map (fun l -> List.hd facts :: l) (shuffle_gen facts);
        return (match facts with _ :: (_ :: _ as rest) -> rest | l -> l);
        list_size (int_range 1 6) fact_gen;
      ]
    >>= fun variant ->
    session_gen >|= fun sess ->
    (String.concat " " facts, String.concat " " variant, sess))

let qcheck_instance_keys =
  QCheck.Test.make ~name:"instance fingerprints agree with printed forms"
    ~count:150
    (QCheck.make
       ~print:(fun (a, b, s) -> Printf.sprintf "%s | %s | %s" a b s)
       instance_case_gen)
    (fun (a, b, sess) ->
      let hit =
        second_hits
          ~setup:
            [ "p1 load s1 program tc goal T : " ^ tc_text;
              "p2 load s2 program tc goal T : " ^ tc_text ]
          ~load_a:("la load s1 instance ia : " ^ a)
          ~load_b:(Printf.sprintf "lb load %s instance ib : %s" sess b)
          ~run_a:"qa eval s1 tc ia"
          ~run_b:(Printf.sprintf "qb eval %s tc ib" sess)
      in
      keys_agree ~fp:Instance.fingerprint ~printed:Key_oracle.instance
        (Parse.instance a) (Parse.instance b) hit)

(* view sets: CQ views V0, V1, ... over E, one rule each *)
let view_gen =
  QCheck.Gen.(
    rule_gen >|= fun ((h1, h2), body) ->
    let body = List.map (fun (_, a, b) -> ("E", a, b)) body in
    ((h1, if h1 = h2 then None else Some h2), body))

let views_text views =
  String.concat " "
    (List.mapi
       (fun k ((h1, h2), body) ->
         Printf.sprintf "V%d(%s) <- %s." k
           (match h2 with None -> h1 | Some h2 -> h1 ^ "," ^ h2)
           (body_text body))
       views)

let rename_views perm views =
  let v x = List.assoc x perm in
  List.map
    (fun ((h1, h2), body) -> ((v h1, Option.map v h2), rename_body v body))
    views

let views_case_gen =
  QCheck.Gen.(
    list_size (int_range 1 3) view_gen >>= fun views ->
    oneof
      [
        return views;
        map
          (fun p -> rename_views (List.combine vars p) views)
          (shuffle_gen vars);
        shuffle_gen views;
        list_size (int_range 1 3) view_gen;
      ]
    >>= fun variant ->
    session_gen >|= fun sess -> (views_text views, views_text variant, sess))

let qcheck_views_keys =
  QCheck.Test.make ~name:"view-set fingerprints agree with printed forms"
    ~count:100
    (QCheck.make
       ~print:(fun (a, b, s) -> Printf.sprintf "%s | %s | %s" a b s)
       views_case_gen)
    (fun (a, b, sess) ->
      let goal = "G() <- E(x,y), E(y,z)." in
      let hit =
        second_hits
          ~setup:
            [ "p1 load s1 program g goal G : " ^ goal;
              "p2 load s2 program g goal G : " ^ goal ]
          ~load_a:("la load s1 views va : " ^ a)
          ~load_b:(Printf.sprintf "lb load %s views vb : %s" sess b)
          ~run_a:"qa rewrite-check s1 g va samples=1"
          ~run_b:(Printf.sprintf "qb rewrite-check %s g vb samples=1" sess)
      in
      keys_agree
        ~fp:(fun vs -> View.fingerprint_hex vs)
        ~printed:Key_oracle.views (Parse.views a) (Parse.views b) hit)

(* RPQs as trees, printed fully parenthesized so each parses to exactly
   its tree *)
type rx = Sym of string | Seq of rx * rx | Alt of rx * rx | Star of rx

let rec rx_text = function
  | Sym s -> s
  | Seq (x, y) -> "(" ^ rx_text x ^ "." ^ rx_text y ^ ")"
  | Alt (x, y) -> "(" ^ rx_text x ^ "|" ^ rx_text y ^ ")"
  | Star x -> "(" ^ rx_text x ^ ")*"

let rx_gen =
  QCheck.Gen.(
    sized_size (int_range 1 4)
    @@ fix (fun self n ->
           if n = 0 then map (fun s -> Sym s) (oneofl [ "a"; "b"; "a^"; "b^" ])
           else
             let half = self (n / 2) in
             frequency
               [
                 (1, map (fun s -> Sym s) (oneofl [ "a"; "b" ]));
                 (2, map2 (fun x y -> Seq (x, y)) half half);
                 (2, map2 (fun x y -> Alt (x, y)) half half);
                 (1, map (fun x -> Star x) (self (n - 1)));
               ]))

(* the same language, another tree: re-associate the topmost
   [.]/[|] chain, or swap an alternation *)
let rec regroup = function
  | Seq (Seq (x, y), z) -> Seq (x, Seq (y, z))
  | Seq (x, Seq (y, z)) -> Seq (Seq (x, y), z)
  | Alt (Alt (x, y), z) -> Alt (x, Alt (y, z))
  | Alt (x, Alt (y, z)) -> Alt (Alt (x, y), z)
  | Alt (x, y) -> Alt (y, x)
  | Seq (x, y) -> Seq (regroup x, y)
  | Star x -> Star (regroup x)
  | Sym _ as s -> s

let rpq_case_gen =
  QCheck.Gen.(
    rx_gen >>= fun e ->
    oneof [ return e; return (regroup e); rx_gen ] >>= fun variant ->
    session_gen >|= fun sess -> (rx_text e, rx_text variant, sess))

let qcheck_rpq_keys =
  QCheck.Test.make ~name:"rpq fingerprints agree with printed forms"
    ~count:150
    (QCheck.make
       ~print:(fun (a, b, s) -> Printf.sprintf "%s | %s | %s" a b s)
       rpq_case_gen)
    (fun (a, b, sess) ->
      let graph = "a(n0,n1). b(n1,n2). a(n2,n0). b(n2,n2)." in
      let hit =
        second_hits
          ~setup:
            [ "g1 load s1 instance g : " ^ graph;
              "g2 load s2 instance g : " ^ graph ]
          ~load_a:(Printf.sprintf "la rpq-load s1 ra : qa = %s ;" a)
          ~load_b:(Printf.sprintf "lb rpq-load %s rb : qb = %s ;" sess b)
          ~run_a:"xa rpq-eval s1 qa g"
          ~run_b:(Printf.sprintf "xb rpq-eval %s qb g" sess)
      in
      keys_agree ~fp:Rpq.fingerprint ~printed:Key_oracle.rpq (Rpq.parse a)
        (Rpq.parse b) hit)

(* ------------------------------------------------------------------ *)
(* The line-level entry points, each answering one line. *)
let line_entries =
  [
    ("handle_line", Svc_service.handle_line);
    ( "handle_lines",
      fun svc line -> List.hd (Svc_service.handle_lines svc [ line ]) );
  ]

let check_no_session entry svc handle =
  check_int (entry ^ ": no session created") 0 (Svc_service.sessions svc);
  match (handle svc "st stats").Svc_proto.result with
  | Svc_proto.Ok_ b ->
      check_bool (entry ^ ": stats shows sessions=0") true
        (List.mem "sessions=0" (String.split_on_char ' ' b))
  | _ -> Alcotest.fail "stats failed"

(* Deadline first, on every entry point: [deadline=0] answers [timeout]
   before the session is resolved (so an unknown session is not an
   error) or created (so a timed-out load leaves none behind). *)

let test_deadline_first () =
  List.iter
    (fun (entry, handle) ->
      let svc = Svc_service.create () in
      List.iter
        (fun line ->
          check_string
            (Printf.sprintf "%s: %s" entry line)
            "q timeout"
            (Svc_proto.print_response (handle svc line)))
        [
          "q eval nosuch tc i deadline=0";
          "q assert nosuch i deadline=0 : E(a,b).";
          "q load s1 program tc goal T deadline=0 : " ^ tc_text;
          "q rpq-load s2 r deadline=0 : r = a* ;";
        ];
      check_no_session entry svc handle)
    line_entries

(* A load whose payload does not parse answers [error] and, like a
   timed-out one, leaves no session behind: the payload is parsed before
   the session is created. *)
let test_failed_load_no_session () =
  List.iter
    (fun (entry, handle) ->
      let svc = Svc_service.create () in
      List.iter
        (fun (line, prefix) ->
          let out = Svc_proto.print_response (handle svc line) in
          check_bool
            (Printf.sprintf "%s: %s answers %S, got %S" entry line prefix out)
            true
            (String.starts_with ~prefix out))
        [
          ("1 load s9 instance i : E(a,", "1 error parse error");
          ("2 load s9 program tc goal T : T(x,y) <- ", "2 error parse error");
          ("3 load s9 views v : V(x) <- ", "3 error parse error");
          ("4 rpq-load s9 r : r = (a", "4 error rpq parse error");
        ];
      check_no_session entry svc handle)
    line_entries

(* Inputs outside a decision procedure's scope answer [error
   unsupported: ...], whichever procedure rejects them, and the service
   keeps answering: constants in the query reach the CQ automaton,
   constants in a view the forward automaton, and a 63-atom query
   overflows the CQ automaton's atom masks. *)
let test_unsupported_inputs () =
  List.iter
    (fun (entry, handle) ->
      List.iter
        (fun (query, views) ->
          let svc = Svc_service.create () in
          let answer line = Svc_proto.print_response (handle svc line) in
          check_string (entry ^ ": load program") "1 ok loaded program g"
            (answer ("1 load s program g goal G : " ^ query));
          check_string (entry ^ ": load views") "2 ok loaded views v"
            (answer ("2 load s views v : " ^ views));
          let out = answer "3 mondet-test s g v" in
          check_bool
            (Printf.sprintf "%s: %s over %s answers unsupported, got %S" entry
               query views out)
            true
            (String.starts_with ~prefix:"3 error unsupported: " out);
          check_bool (entry ^ ": stats answers") true
            (String.starts_with ~prefix:"4 ok hits=" (answer "4 stats")))
        [
          ("G() <- E('a',x).", "V(x,y) <- E(x,y).");
          ("G() <- E(x,y).", "V(x) <- E(x,'c').");
          ( "G() <- "
            ^ String.concat ", "
                (List.init 63 (fun i -> Printf.sprintf "U%d(x)" i))
            ^ ".",
            "V(x) <- U0(x)." );
        ])
    (List.filter (fun (e, _) -> e <> "handle_lines") line_entries)

(* malformed lines keep their position in handle_lines output *)
let test_handle_lines_order () =
  let svc = Svc_service.create () in
  let lines =
    [
      "1 load s program tc goal T : T(x,y) <- E(x,y).";
      "2 load s instance i : E(a,b).";
      "oops";
      "3 eval s tc i";
    ]
  in
  let out =
    List.map Svc_proto.print_response (Svc_service.handle_lines svc lines)
  in
  check_bool "four responses" true (List.length out = 4);
  check_string "malformed kept in place" "oops error missing verb"
    (List.nth out 2);
  check_string "eval after it" "3 ok a,b" (List.nth out 3)

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_request_roundtrip;
      qcheck_response_roundtrip;
      qcheck_program_keys;
      qcheck_instance_keys;
      qcheck_views_keys;
      qcheck_rpq_keys;
    ]

let suite =
  [
    Alcotest.test_case "golden transcript" `Quick test_golden;
    Alcotest.test_case "cache lru" `Quick test_cache_lru;
    Alcotest.test_case "cancel tokens" `Quick test_cancel;
    Alcotest.test_case "deadline on large fixpoint" `Quick
      test_deadline_large_fixpoint;
    Alcotest.test_case "handle_lines order" `Quick test_handle_lines_order;
    Alcotest.test_case "mutation verbs" `Quick test_mutations;
    Alcotest.test_case "mutation deadline race" `Quick
      test_mutation_deadline_race;
    Alcotest.test_case "deadline first on every entry point" `Quick
      test_deadline_first;
    Alcotest.test_case "failed load creates no session" `Quick
      test_failed_load_no_session;
    Alcotest.test_case "unsupported inputs answer an error" `Quick
      test_unsupported_inputs;
    Alcotest.test_case "mixed workload (2 sessions, pool)" `Slow
      test_mixed_workload;
    Alcotest.test_case "key modes agree (fingerprint vs printed)" `Slow
      test_key_mode_differential;
  ]
  @ qcheck
