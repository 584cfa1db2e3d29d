(* The experiment harness: regenerates every table and figure of the
   paper (printed reports, one section per artifact) and then runs a
   Bechamel micro-benchmark per table/figure on a representative
   workload.

     dune exec bench/main.exe            # reports + micro-benchmarks
     dune exec bench/main.exe -- report  # reports only
     dune exec bench/main.exe -- micro   # micro-benchmarks only
     dune exec bench/main.exe -- json    # full suite -> BENCH_eval.json

   The benchmark definitions and the JSON emitter live in {!Bench_json}. *)

let report () =
  Format.printf "==============================================================@.";
  Format.printf " mondet experiment report — every table & figure of the paper@.";
  Format.printf "==============================================================@.";
  Tables.table1 ();
  Tables.table2 ();
  Figures.figure1 ();
  Figures.figure2 ();
  Figures.figure3 ();
  Figures.figure4 ();
  Experiments.e5 ();
  Experiments.e6 ();
  Experiments.e7 ();
  Experiments.e8 ();
  Experiments.e9 ();
  Experiments.e10 ();
  Experiments.e11 ();
  Experiments.e12 ();
  Experiments.e13 ();
  Experiments.e14 ();
  Experiments.e16 ();
  Experiments.e19 ();
  Experiments.e20 ();
  Experiments.e21 ();
  Format.printf "@.report complete.@."

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match mode with
  | "report" -> report ()
  | "micro" -> Bench_json.micro ()
  | "json" ->
      let path = if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None in
      Bench_json.json ?path ()
  | _ ->
      report ();
      Bench_json.micro ());
  Format.printf "@.done.@."
