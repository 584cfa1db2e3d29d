(* mondetbench: the repository's benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --mondet PATH
     bench.exe selftest --mondet PATH

   A run prints every metric by name with its unit (and sample counts),
   then, as its last line, one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  It exits 1 when
   any output was wrong. *)

let workloads = [ "serve-hot"; "serve-churn"; "decide" ]

(* bound of the sum check: traced parts vs the untraced in-process time *)
let sum_bound = 0.10

(* Per-layer metrics in BENCHMARK.json order.  A workload that never
   reaches a layer reports 0 for its metrics. *)
let per_layer =
  [
    ("svc_reader.feed_ns", "ns"); ("svc_proto.parse_ns", "ns");
    ("svc_proto.print_ns", "ns"); ("svc_service.hit_ns", "ns");
    ("svc_service.miss_ns.eval", "ns"); ("svc_service.miss_ns.holds", "ns");
    ("svc_service.miss_ns.rpq-eval", "ns");
    ("svc_service.mutate_ns.assert", "ns");
    ("svc_service.mutate_ns.retract", "ns"); ("svc_tcp.residual_us", "us");
    ("svc_cache.hit_ratio", "ratio"); ("svc_cache.evictions_per_kop", "1/kop");
    ("dl_incr.maintained_per_mutation", "count");
    ("md_tests.enumerate_ns", "ns"); ("md_tests.succeeds_ns", "ns");
    ("md_tests.tests_per_job", "count"); ("md_decide.compose_ns", "ns");
    ("md_decide.contain_ns", "ns"); ("md_separator.chase_ns", "ns");
    ("pebble.duplicator_wins_ns", "ns"); ("th9.holds_ns", "ns");
    ("md_rewrite.fwd_bwd_ns", "ns"); ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words"); ("trace.overhead_ratio", "ratio");
    ("trace.sum_ratio", "ratio");
  ]

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         l)
  ^ "}"

let serve_gen ?size workload seed =
  if workload = "serve-hot" then Gen.hot ?size ~seed () else Gen.churn ?size ~seed ()

let run_workload ~size ~mondet ~workload ~seed ~seconds ~traced ~out =
  let span_file = Filename.concat out (Printf.sprintf "spans-%s-seed%d.csv" workload seed) in
  match workload with
  | "decide" -> Decide.run ~size ~seed ~seconds ~traced ~span_file
  | _ ->
      Serve.run ~mondet ~gen:(serve_gen ~size workload seed) ~seconds ~traced ~sum_bound
        ~span_file

let print_outcome ~traced (o : Stats.outcome) =
  List.iter print_endline o.report;
  List.iter
    (fun (n, v, u, note) -> Printf.printf "%-16s %14.4f %-5s (%s)\n" n v u note)
    o.end_to_end;
  let layers =
    List.map
      (fun (n, u) -> (n, Option.value (List.assoc_opt n o.per_layer) ~default:0.0, u))
      per_layer
  in
  if traced then
    List.iter (fun (n, v, u) -> Printf.printf "%-34s %16.4f %s\n" n v u) layers;
  let metrics =
    if traced then layers
    else
      List.filter_map
        (fun (n, v, u, _) -> if n = "fail_ratio" then None else Some (n, v, u))
        o.end_to_end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (o.failed = 0) o.attempted o.failed (json_metrics metrics)

(* ------------------------------------------------------------------ *)
(* The benchmark's own tests. *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* the first [count] generated inputs of a workload, as text *)
let render workload seed count =
  match workload with
  | "decide" ->
      let next = Gen.decide_jobs ~seed () in
      List.init count (fun _ -> Gen.describe (next ()))
  | _ ->
      let g = serve_gen workload seed in
      g.setup @ g.warm
      @ List.concat (List.init count (fun _ -> Array.to_list (Array.map (fun s -> s ()) g.streams)))

let selftest ~mondet ~out =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  List.iter
    (fun w ->
      let a = render w 1 500 and b = render w 1 500 and c = render w 2 500 in
      check (w ^ ": generation is byte-identical for a fixed seed") (a = b);
      check (w ^ ": generation differs across seeds") (a <> c))
    workloads;
  let layer (o : Stats.outcome) n = Option.value (List.assoc_opt n o.per_layer) ~default:nan in
  let run ~size ~workload ~seed ~seconds =
    let o = run_workload ~size ~mondet ~workload ~seed ~seconds ~traced:true ~out in
    List.iter (fun l -> print_endline ("  " ^ l)) o.report;
    o
  in
  List.iter
    (fun w ->
      let o = run ~size:Gen.Tiny ~workload:w ~seed:3 ~seconds:1.0 in
      check (Printf.sprintf "%s: tiny smoke run is correct (%d attempted, %d failed)" w o.attempted o.failed)
        (o.failed = 0 && o.attempted > 0))
    workloads;
  let sum_check w o =
    let r = layer o "trace.sum_ratio" in
    check (Printf.sprintf "%s: sum check (ratio %.4f)" w r) (Float.abs (r -. 1.0) <= sum_bound)
  in
  let hot = run ~size:Gen.Full ~workload:"serve-hot" ~seed:4 ~seconds:2.0 in
  let r = layer hot "svc_cache.hit_ratio" in
  check (Printf.sprintf "serve-hot: hit ratio %.4f >= 0.99 after set-up" r) (r >= 0.99);
  sum_check "serve-hot" hot;
  let churn = run ~size:Gen.Full ~workload:"serve-churn" ~seed:4 ~seconds:5.0 in
  let r = layer churn "svc_cache.hit_ratio" and e = layer churn "svc_cache.evictions_per_kop" in
  check (Printf.sprintf "serve-churn: evictions (%.1f per kop) > 0" e) (e > 0.0);
  check (Printf.sprintf "serve-churn: hit ratio %.4f well below 1 (< 0.9)" r) (r < 0.9);
  sum_check "serve-churn" churn;
  check "full-size runs are correct" (hot.failed = 0 && churn.failed = 0);
  if !failures > 0 then begin
    Printf.printf "%d selftest failure(s)\n" !failures;
    exit 1
  end
  else print_endline "selftest passed"

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe [selftest] --workload serve-hot|serve-churn|decide --seed N \
     --seconds S --trace 0|1 --mondet PATH [--out DIR]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selftest_mode, args =
    match args with "selftest" :: rest -> (true, rest) | _ -> (false, args)
  in
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  let get k = Hashtbl.find_opt opts k in
  let out = Option.value (get "out") ~default:(Filename.concat "mondetbench" "out") in
  mkdir_p out;
  let mondet () =
    match get "mondet" with
    | Some p when Sys.file_exists p -> p
    | _ ->
        prerr_endline "bench: --mondet must name the built mondet executable";
        exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if selftest_mode then selftest ~mondet:(mondet ()) ~out
  else
      let workload =
        match get "workload" with Some w when List.mem w workloads -> w | _ -> usage ()
      in
      let seed =
        match Option.bind (get "seed") int_of_string_opt with Some s -> s | None -> usage ()
      in
      let seconds =
        match Option.bind (get "seconds") float_of_string_opt with
        | Some s when s > 0.0 -> s
        | _ -> usage ()
      in
      let traced = match get "trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage () in
      let mondet = if workload = "decide" then "" else mondet () in
      Printf.printf "mondetbench: workload=%s seed=%d seconds=%g trace=%d\n%!" workload seed
        seconds (if traced then 1 else 0);
      let o = run_workload ~size:Gen.Full ~mondet ~workload ~seed ~seconds ~traced ~out in
      print_outcome ~traced o;
      exit (if o.failed = 0 then 0 else 1)
