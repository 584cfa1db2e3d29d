(* bench_diff — compare two benchmark trajectory files.

     dune exec bench/bench_diff.exe -- BENCH_eval.json fresh.json
     dune exec bench/bench_diff.exe -- BENCH_eval.json fresh.json --threshold 40

   Both files use the mondet-bench/1 schema written by [Bench_json.json]
   (one {name; ns_per_run} object per line).  The tool prints a per-
   benchmark delta and exits nonzero when any benchmark common to both
   files regressed by more than the threshold (percent, default 25).
   Benchmarks present on only one side are reported but never fail the
   run — the trajectory is expected to grow — unless no benchmark is
   common to both files: then nothing was compared, and the tool exits 2
   rather than report "no regression". *)

let parse_file path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      exit 2
  in
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       match
         Scanf.sscanf line " {\"name\": %S, \"ns_per_run\": %f" (fun n t ->
             (n, t))
       with
       | row -> rows := row :: !rows
       | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let usage () =
  prerr_endline
    "usage: bench_diff BASELINE.json FRESH.json [--threshold PERCENT]";
  exit 2

let () =
  let baseline_path, fresh_path, threshold =
    match Array.to_list Sys.argv with
    | [ _; b; f ] -> (b, f, 25.0)
    | [ _; b; f; "--threshold"; t ] -> (
        match float_of_string_opt t with Some t -> (b, f, t) | None -> usage ())
    | _ -> usage ()
  in
  let baseline = parse_file baseline_path in
  let fresh = parse_file fresh_path in
  if baseline = [] then (
    Printf.eprintf "bench_diff: no benchmarks parsed from %s\n" baseline_path;
    exit 2);
  if fresh = [] then (
    Printf.eprintf "bench_diff: no benchmarks parsed from %s\n" fresh_path;
    exit 2);
  if not (List.exists (fun (n, _) -> List.mem_assoc n fresh) baseline) then (
    Printf.eprintf "bench_diff: no benchmark is common to %s and %s\n"
      baseline_path fresh_path;
    exit 2);
  let regressions = ref [] in
  Printf.printf "  %-34s %14s %14s %9s\n" "benchmark" "baseline" "fresh"
    "delta";
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name fresh with
      | None -> Printf.printf "  %-34s %14.0f %14s %9s\n" name base "-" "gone"
      | Some now ->
          let pct = (now -. base) /. base *. 100.0 in
          let flag =
            if pct > threshold then (
              regressions := (name, pct) :: !regressions;
              "  << REGRESSION")
            else ""
          in
          Printf.printf "  %-34s %14.0f %14.0f %+8.1f%%%s\n" name base now pct
            flag)
    baseline;
  List.iter
    (fun (name, now) ->
      if not (List.mem_assoc name baseline) then
        Printf.printf "  %-34s %14s %14.0f %9s\n" name "-" now "new")
    fresh;
  match List.rev !regressions with
  | [] ->
      Printf.printf "\nno regression above %.0f%% (%d benchmarks compared).\n"
        threshold
        (List.length (List.filter (fun (n, _) -> List.mem_assoc n fresh) baseline))
  | rs ->
      Printf.printf "\n%d benchmark(s) regressed beyond %.0f%%:\n"
        (List.length rs) threshold;
      List.iter (fun (n, pct) -> Printf.printf "  %s: %+.1f%%\n" n pct) rs;
      exit 1
