(* Order statistics over samples. *)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks; [nan] when empty. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median sorted = quantile sorted 0.5

(* Mean of the central 2% of the samples (at least one): a median that
   does not snap to the clock's integer grid, so short spans keep their
   sub-nanosecond variation between runs. *)
let center sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let lo = int_of_float (0.49 *. float_of_int n) in
    let hi = max (lo + 1) (int_of_float (Float.ceil (0.51 *. float_of_int n))) in
    let hi = min n hi in
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. sorted.(i)
    done;
    !s /. float_of_int (hi - lo)

(* The highest percentile with at least ten samples beyond it, capped at
   the 99th: [(p, value)]. *)
let tail sorted =
  let n = Array.length sorted in
  let p =
    if n <= 20 then 0.5 else Float.min 0.99 (1.0 -. (10.0 /. float_of_int n))
  in
  (p, quantile sorted p)

let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)

(* Client-observed latency and throughput of a run, each reduced as the
   median over consecutive equal-count segments of the run: medians and
   throughputs over up to 9 segments of at least 200 ops, the tail over
   up to 9 segments of at least 1000 ops (so every segment's tail
   percentile has at least ten samples beyond it).  A burst of outside
   noise then moves a segment, not the run's figures.  [lat_ns] and
   [done_ns] are per op in completion order; [t0_ns] is when the run
   started. *)
type segmented = {
  segments : int;  (** for the median and the throughput *)
  tail_segments : int;
  p50_ns : float;
  tail_ns : float;
  tail_p : float;  (** the smallest segment's tail percentile *)
  per_s : float;
  each : (float * float) list;  (** per segment: median, throughput *)
}

let segmented ~t0_ns ~lat_ns ~done_ns =
  let n = Array.length lat_ns in
  let over ~min_ops f =
    let k = max 1 (min 9 (n / min_ops)) in
    let each =
      List.init k (fun i ->
          let a = i * n / k and b = (i + 1) * n / k in
          let s = Array.sub lat_ns a (b - a) in
          Array.sort compare s;
          let start = if a = 0 then t0_ns else done_ns.(a - 1) in
          f s (Float.max 1.0 (done_ns.(b - 1) -. start)))
    in
    (k, each)
  in
  let med l = median (sorted_of_list l) in
  let k, mids =
    over ~min_ops:200 (fun s span -> (median s, float_of_int (Array.length s) /. (span /. 1e9)))
  in
  let tk, tails = over ~min_ops:1000 (fun s _ -> tail s) in
  {
    segments = k;
    tail_segments = tk;
    p50_ns = med (List.map fst mids);
    tail_ns = med (List.map snd tails);
    tail_p = List.fold_left (fun acc (p, _) -> Float.min acc p) 1.0 tails;
    per_s = med (List.map snd mids);
    each = mids;
  }

let describe_segments seg =
  "segments (p50 us @ ops/s): "
  ^ String.concat ", "
      (List.map (fun (m, r) -> Printf.sprintf "%.1f@%.1f" (m /. 1e3) r) seg.each)

(* What one workload run reports. *)
type outcome = {
  attempted : int;
  failed : int;
  end_to_end : (string * float * string * string) list;
      (** name, value, unit, and a note (sample count, percentile) *)
  per_layer : (string * float) list;  (** empty unless traced *)
  report : string list;  (** extra human-readable lines *)
}
