(* The decide workload: in-process decision-procedure jobs.  Each job is
   one call of a public entry point; its verdict is checked against the
   Naive engine where the entry point takes [?engine], and against a
   recorded verdict elsewhere.  The traced pass splits each job into its
   public sub-calls. *)

open Gen

let setup_reps = 5

(* jobs first run untimed until every never-seen program name has been
   used once (Gen.decide_rotation), for at most this share of the
   measured time and [warm_max_s]: the symbol table, memo tables, plan
   and compile caches and the heap are then in their steady state when
   timing starts *)
let warm_share = 0.4
let warm_max_s = 10.0

(* ------------------------------------------------------------------ *)
(* Job inputs.  Programs reused across jobs are built once, so a reused
   job meets the same physical program (the plan cache is keyed
   physically); a [fresh] job renames the program's IDBs apart. *)

let memo tbl k f =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl k v;
      v

let suffix fresh s =
  match fresh with None -> s | Some n -> Printf.sprintf "%s_u%d" s n

let rename fresh q =
  match fresh with None -> q | Some _ -> Datalog.rename_idbs (suffix fresh) q

let tp_of solvable = if solvable then Tiling.simple_solvable else Tiling.simple_unsolvable

let tc_view_of goal =
  View.datalog "VT"
    (Parse.query ~goal
       (Printf.sprintf "%s(x,y) <- E(x,y). %s(x,y) <- E(x,z), %s(z,y)." goal goal goal))

let tc_view = lazy (tc_view_of "T")
let tc_view fresh = match fresh with None -> Lazy.force tc_view | Some _ -> tc_view_of (suffix fresh "T")

let cq_of ~star ~atoms =
  let v i = Cq.Var (Printf.sprintf "x%d" i) in
  Cq.make ~head:[]
    (List.init atoms (fun i ->
         if star then Cq.atom "E" [ Cq.Var "c"; v i ] else Cq.atom "E" [ v i; v (i + 1) ]))

let images = Hashtbl.create 8
let image k = memo images k (fun () -> View.image Diamonds.views (Diamonds.chain k))
let grids = Hashtbl.create 4
let grid n m = memo grids (n, m) (fun () -> Tiling.grid n m)
let tp_star = lazy (Tiling.structure Parity.tp_star)
let machine = Tm.binary_counter_parity
let th9_query = lazy (Th9.query machine)
let runs = Hashtbl.create 8
let run_of w = memo runs w (fun () -> Encode.encode_run machine w)

(* the §3 pipeline cases of experiment E11 *)
let fwd_cases =
  lazy
    (Array.map
       (fun (text, schema) ->
         ( Parse.query ~goal:"G" text,
           List.map (fun (r, n) -> View.atomic ("V" ^ r) r n) schema ))
       [|
         ("P(x) <- U(x). P(x) <- R(x,y), P(y). G <- P(x), S(x).", [ ("R", 2); ("U", 1); ("S", 1) ]);
         ( "A(x) <- U(x). A(x) <- R(x,y), A(y). B(x) <- W(x). B(x) <- R(x,y), \
            B(y). G <- A(x), B(x).",
           [ ("R", 2); ("U", 1); ("W", 1) ] );
       |])

let tiling_verdict = function
  | Md_tests.Not_determined _ -> "not-determined"
  | Md_tests.No_failure_up_to n -> Printf.sprintf "no-failure-up-to %d" n

let mode all = if all then Md_separator.All else Md_separator.Any

(* One job, untraced. *)
let exec ?engine j =
  match j.kind with
  | Tiling { solvable; depth } ->
      let tp = tp_of solvable in
      tiling_verdict
        (Md_tests.decide_bounded ?engine ~max_depth:depth
           (rename j.fresh (Reduction.query tp))
           (Reduction.views tp))
  | Cq { star; atoms } ->
      string_of_bool (Md_decide.cq_query (cq_of ~star ~atoms) [ tc_view j.fresh ])
  | Chase { all; k } ->
      string_of_bool
        (Md_separator.chase_separator ?engine ~mode:(mode all)
           (rename j.fresh Diamonds.query) Diamonds.views (image k))
  | Pebble { n; m } ->
      string_of_bool (Pebble.duplicator_wins ~k:2 (grid n m) (Lazy.force tp_star))
  | Th9 { word } ->
      string_of_bool
        (Dl_engine.holds_boolean ?strategy:engine
           (rename j.fresh (Lazy.force th9_query))
           (run_of word))
  | Fwd_bwd { case } ->
      let q, views = (Lazy.force fwd_cases).(case) in
      Printf.sprintf "rules=%d"
        (List.length
           (Md_rewrite.forward_backward_atomic (rename j.fresh q) views).Datalog.program)

(* One job, split into its public sub-calls, each a span under the
   job's root span. *)
type names = {
  job : int;
  tests : int;
  succeeds : int;
  compose : int;
  contain : int;
  chase : int;
  pebble : int;
  holds : int;
  fwd_bwd : int;
}

let span_names tr =
  let n = Trace.name tr in
  {
    job = n "job";
    tests = n "md_tests.tests";
    succeeds = n "md_tests.succeeds";
    compose = n "md_decide.compose_with_views";
    contain = n "md_decide.datalog_contained_in_cq";
    chase = n "md_separator.chase_separator";
    pebble = n "pebble.duplicator_wins";
    holds = n "th9.holds";
    fwd_bwd = n "md_rewrite.forward_backward_atomic";
  }

let exec_traced tr nm ~op j =
  let root = Trace.enter tr ~name:nm.job ~parent:(-1) ~op in
  let span name f = Trace.span tr ~name ~parent:root ~op (fun _ -> f ()) in
  let v =
    match j.kind with
    | Tiling { solvable; depth } ->
        (* Md_tests.decide_bounded, unrolled: force the lazy test
           enumeration one test at a time, check each *)
        let tp = tp_of solvable in
        let q = rename j.fresh (Reduction.query tp) in
        let rec go seq n =
          match span nm.tests seq with
          | Seq.Nil -> Md_tests.No_failure_up_to n
          | Seq.Cons (t, rest) ->
              if span nm.succeeds (fun () -> Md_tests.succeeds q t) then go rest (n + 1)
              else Md_tests.Not_determined t
        in
        tiling_verdict
          (go
             (span nm.tests (fun () ->
                  Md_tests.tests ~max_depth:depth q (Reduction.views tp)))
             0)
    | Cq { star; atoms } ->
        (* Md_decide.cq_query = containment of the composition *)
        let q = cq_of ~star ~atoms in
        let q'' =
          span nm.compose (fun () ->
              Md_decide.compose_with_views (Datalog.of_cq ~goal:"G0" q) [ tc_view j.fresh ])
        in
        string_of_bool (span nm.contain (fun () -> Md_decide.datalog_contained_in_cq q'' q))
    | Chase { all; k } ->
        let q = rename j.fresh Diamonds.query in
        string_of_bool
          (span nm.chase (fun () ->
               Md_separator.chase_separator ~mode:(mode all) q Diamonds.views (image k)))
    | Pebble { n; m } ->
        string_of_bool
          (span nm.pebble (fun () ->
               Pebble.duplicator_wins ~k:2 (grid n m) (Lazy.force tp_star)))
    | Th9 { word } ->
        let q = rename j.fresh (Lazy.force th9_query) in
        string_of_bool (span nm.holds (fun () -> Dl_engine.holds_boolean q (run_of word)))
    | Fwd_bwd { case } ->
        let q, views = (Lazy.force fwd_cases).(case) in
        let q = rename j.fresh q in
        Printf.sprintf "rules=%d"
          (List.length
             (span nm.fwd_bwd (fun () -> Md_rewrite.forward_backward_atomic q views))
               .Datalog.program)
  in
  Trace.leave tr root;
  v

(* ------------------------------------------------------------------ *)
(* Expected verdicts. *)

(* Recorded verdicts, for the entry points without [?engine]: every
   path/star CQ here is monotonically determined over the tc view
   (experiment E5), the Duplicator wins the 2-pebble game against TP*
   on the grids wider than 2 both ways (E8), Th9's query accepts exactly the runs the machine
   accepts (E9), and the E11 rewritings have 8 and 10 rules. *)
let recorded j =
  match j.kind with
  | Cq _ -> Some "true"
  | Pebble { n; m } -> Some (string_of_bool (2 < min n m))
  | Th9 { word } -> Some (string_of_bool (Tm.accepts machine word))
  | Fwd_bwd { case } -> Some (if case = 0 then "rules=8" else "rules=10")
  | Tiling _ | Chase _ -> None

(* Every distinct job a stream can produce, programs not renamed. *)
let base_jobs size =
  let j kind = { kind; fresh = None } in
  List.concat
    [
      List.concat_map
        (fun solvable -> List.map (fun depth -> j (Tiling { solvable; depth })) [ 2; 3 ])
        [ true; false ];
      List.concat_map
        (fun star ->
          List.map
            (fun atoms -> j (Cq { star; atoms }))
            (match size with Full -> [ 2; 3; 4 ] | Tiny -> [ 2; 3 ]))
        [ true; false ];
      List.concat_map
        (fun all -> List.map (fun k -> j (Chase { all; k })) [ 2; 4 ])
        [ true; false ];
      [ (match size with Full -> j (Pebble { n = 3; m = 3 }) | Tiny -> j (Pebble { n = 2; m = 2 })) ];
      List.map (fun word -> j (Th9 { word })) [ "0"; "00"; "000" ];
      [ j (Fwd_bwd { case = 0 }); j (Fwd_bwd { case = 1 }) ];
    ]

let key j = describe { j with fresh = None }

(* Set-up: Naive-engine reference verdicts for the [?engine] entry
   points, then one warm run of every distinct job (filling the
   constructors' memo tables and the plan caches). *)
let setup size =
  let refs = Hashtbl.create 32 in
  List.iter
    (fun j ->
      if recorded j = None then
        Hashtbl.replace refs (key j) (exec ~engine:Dl_engine.Naive j);
      ignore (exec j))
    (base_jobs size);
  refs

(* Time [f] in a forked child, so every repetition starts cold. *)
let time_forked f =
  flush stdout;
  flush stderr;
  let t0 = Clock.now_ns () in
  match Unix.fork () with
  | 0 ->
      (try ignore (f ()) with _ -> Unix._exit 3);
      Unix._exit 0
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Clock.seconds_since t0
      | _ -> failwith "decide: set-up failed in a child process")

let us ns = ns /. 1e3

let run ~size ~seed ~seconds ~traced ~span_file =
  let forked = List.init (setup_reps - 1) (fun _ -> time_forked (fun () -> setup size)) in
  let t0 = Clock.now_ns () in
  let refs = setup size in
  let setups = forked @ [ Clock.seconds_since t0 ] in
  let expected j =
    match recorded j with Some v -> v | None -> Hashtbl.find refs (key j)
  in
  let next = Gen.decide_jobs ~size ~seed () in
  let jobs = ref [] and lat = ref [] and fin = ref [] and wrong = ref [] and errors = ref 0 in
  let check j v = if v <> expected j then wrong := (describe j, v, expected j) :: !wrong in
  let run_job j = try exec j with e -> incr errors; "exception " ^ Printexc.to_string e in
  let warm_until =
    Clock.now_ns () + int_of_float (Float.min warm_max_s (warm_share *. seconds) *. 1e9)
  in
  let warm = ref 0 and rotation = Gen.decide_rotation size in
  while !warm < rotation && Clock.now_ns () < warm_until do
    let j = next () in
    check j (run_job j);
    incr warm
  done;
  let g0 = Gc.quick_stat () in
  let start = Clock.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  while Clock.now_ns () < deadline do
    let j = next () in
    let t = Clock.now_ns () in
    let v = run_job j in
    let t' = Clock.now_ns () in
    lat := float_of_int (t' - t) :: !lat;
    fin := float_of_int t' :: !fin;
    jobs := j :: !jobs;
    check j v
  done;
  let elapsed = Clock.seconds_since start in
  let g1 = Gc.quick_stat () in
  let jobs = Array.of_list (List.rev !jobs) in
  let n = Array.length jobs in
  let lat = Array.of_list (List.rev !lat) in
  let rss = Client.peak_rss_mb (Unix.getpid ()) in
  let seg =
    Stats.segmented ~t0_ns:(float_of_int start) ~lat_ns:lat
      ~done_ns:(Array.of_list (List.rev !fin))
  in
  let failed = List.length !wrong in
  let attempted = n in
  let fresh = Array.fold_left (fun a j -> if j.fresh <> None then a + 1 else a) 0 jobs in
  (* per job class, never-seen programs apart *)
  let by_kind = Hashtbl.create 32 in
  Array.iteri
    (fun i d ->
      let j = jobs.(i) in
      let k = key j ^ if j.fresh = None then "" else " fresh" in
      Hashtbl.replace by_kind k (d :: Option.value (Hashtbl.find_opt by_kind k) ~default:[]))
    lat;
  let kinds =
    List.sort compare (Hashtbl.fold (fun k ds acc -> (k, ds) :: acc) by_kind [])
    |> List.map (fun (k, ds) ->
           let s = Stats.sorted_of_list ds in
           let q p = us (Stats.quantile s p) in
           Printf.sprintf "  %-36s %6d jobs  p25 %9.1f  p50 %9.1f  p75 %9.1f  max %9.1f us" k
             (Array.length s) (q 0.25) (q 0.5) (q 0.75) (us s.(Array.length s - 1)))
  in
  let report =
    (Printf.sprintf
       "jobs: %d run after %d untimed warm-up jobs, %d never-seen programs (%.1f%%), %d \
        wrong verdicts (warm-up included), %d raised"
      n !warm fresh (100. *. float_of_int fresh /. float_of_int (max 1 n)) failed !errors
    :: Stats.describe_segments seg :: kinds)
    @ List.map
         (fun (d, got, want) -> Printf.sprintf "  WRONG %s: got %s, want %s" d got want)
         (List.filteri (fun i _ -> i < 10) !wrong)
  in
  let end_to_end =
    [
      ( "setup_s", Stats.median (Stats.sorted_of_list setups), "s",
        Printf.sprintf "median of %d set-ups: %s" setup_reps
          (String.concat " " (List.map (Printf.sprintf "%.3f") setups)) );
      ("op_p50_us", us seg.p50_ns, "us", Printf.sprintf "n=%d, median of %d segments" n seg.segments);
      ( "op_p99_us", us seg.tail_ns, "us",
        Printf.sprintf "p%.2f, >=10 beyond in each of %d segments" (100. *. seg.tail_p)
          seg.tail_segments );
      ( "ops_per_s", seg.per_s, "1/s",
        Printf.sprintf "n=%d in %.2fs, 1 closed-loop caller, median of %d segments" n elapsed
          seg.segments );
      ( "fail_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio",
        Printf.sprintf "%d of %d attempted" failed attempted );
      ("rss_peak_mb", rss, "MB", "bench process VmHWM");
    ]
  in
  let minor = (g1.minor_words -. g0.minor_words) /. float_of_int (max 1 n)
  and major = (g1.major_words -. g0.major_words) /. float_of_int (max 1 n) in
  if not traced then { Stats.attempted; failed; end_to_end; per_layer = []; report }
  else begin
    (* the measured jobs again, traced, then untraced as the baseline:
       both after the measured pass has warmed the process *)
    let tr = Trace.create () in
    let nm = span_names tr in
    let traced_wrong = ref 0 in
    let t = Clock.now_ns () in
    Array.iteri
      (fun op j -> if exec_traced tr nm ~op j <> expected j then incr traced_wrong)
      jobs;
    let traced_ns = float_of_int (Clock.now_ns () - t) in
    let t = Clock.now_ns () in
    Array.iter (fun j -> if exec j <> expected j then incr traced_wrong) jobs;
    let untraced_ns = float_of_int (Clock.now_ns () - t) in
    let center s = Stats.center (Trace.durations tr s) in
    let enum = Trace.op_totals ~name:"md_tests.tests" tr ~ops:n in
    let tiling_ops =
      List.filter (fun i -> match jobs.(i).kind with Tiling _ -> true | _ -> false)
        (List.init n Fun.id)
    in
    let enum = Stats.sorted_of_list (List.map (fun i -> enum.(i)) tiling_ops) in
    let parts = Stats.sum (Trace.op_totals tr ~ops:n) in
    let per_layer =
      [
        ("md_tests.enumerate_ns", Stats.center enum);
        ("md_tests.succeeds_ns", center "md_tests.succeeds");
        ( "md_tests.tests_per_job",
          float_of_int (Trace.count tr "md_tests.succeeds")
          /. float_of_int (max 1 (List.length tiling_ops)) );
        ("md_decide.compose_ns", center "md_decide.compose_with_views");
        ("md_decide.contain_ns", center "md_decide.datalog_contained_in_cq");
        ("md_separator.chase_ns", center "md_separator.chase_separator");
        ("pebble.duplicator_wins_ns", center "pebble.duplicator_wins");
        ("th9.holds_ns", center "th9.holds");
        ("md_rewrite.fwd_bwd_ns", center "md_rewrite.forward_backward_atomic");
        ("gc.minor_words_per_op", minor);
        ("gc.major_words_per_op", major);
        ("trace.overhead_ratio", traced_ns /. untraced_ns);
        ("trace.sum_ratio", parts /. untraced_ns);
      ]
    in
    Trace.write_csv tr span_file;
    let report =
      report
      @ [
          Printf.sprintf
            "replayed %d jobs: traced %.3f ms, untraced %.3f ms, %d wrong verdicts; span \
             durations net of the clock's own %.1f ns"
            n (traced_ns /. 1e6) (untraced_ns /. 1e6) !traced_wrong (Trace.clock_ns tr);
          Printf.sprintf "spans written to %s" span_file;
          Trace.table tr;
        ]
    in
    { Stats.attempted; failed = failed + !traced_wrong; end_to_end; per_layer; report }
  end
