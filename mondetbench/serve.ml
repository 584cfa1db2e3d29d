(* The serve workloads: a [mondet serve --tcp] child process driven by
   the closed-loop client, every response checked against a sequential
   in-process oracle.  The traced pass replays the same request stream
   in-process through the layers' public functions. *)

open Svc_proto

let setup_reps = 5

(* the closed loop first runs untimed for this share of the measured
   time (at most [warm_max_s]), so the cache, the server's heap and its
   compile caches are in their steady state when timing starts *)
let warm_share = 0.25
let warm_max_s = 5.0

(* the traced run replays the first half of the measured requests, at
   most this many *)
let replay_cap = 30_000

(* [key=value] field of a response body *)
let field body key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
          int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' body)

let rid_of line =
  match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line

(* the verb of a request line and its session: the two words after its
   id *)
let verb_of line =
  match String.split_on_char ' ' line with
  | _ :: v :: s :: _ -> v ^ " " ^ s
  | _ :: v :: _ -> v
  | _ -> "?"

(* per verb and session: count and latency quantiles, to show where a
   run's figures come from *)
let describe_verbs exchanges latency_ns =
  let by = Hashtbl.create 8 in
  Array.iteri
    (fun i (req, _) ->
      let v = verb_of req in
      Hashtbl.replace by v (latency_ns.(i) :: Option.value (Hashtbl.find_opt by v) ~default:[]))
    exchanges;
  Hashtbl.fold (fun v l acc -> (v, Stats.sorted_of_list l) :: acc) by []
  |> List.sort compare
  |> List.map (fun (v, s) ->
         let q p = Stats.quantile s p /. 1e3 in
         Printf.sprintf
           "  %-12s n=%-6d p10 %.0f us, p25 %.0f us, p50 %.0f us, p75 %.0f us, p99 %.0f us" v
           (Array.length s) (q 0.1) (q 0.25) (q 0.5) (q 0.75) (q 0.99))
  |> String.concat "\n"
  |> ( ^ ) "latency by verb and session:\n"

type tally = {
  mutable ok : int;
  mutable error : int;
  mutable timeout : int;
  mutable busy : int;
}

let tally_exchange t (req, resp) =
  match parse_response resp with
  | Ok { rid; result = Ok_ _ } when rid = rid_of req && req <> "-" -> t.ok <- t.ok + 1
  | Ok { result = Timeout; _ } -> t.timeout <- t.timeout + 1
  | Ok { result = Busy; _ } -> t.busy <- t.busy + 1
  | _ -> t.error <- t.error + 1

(* Boot the server, load the sessions and warm the cache, all in
   lockstep on one connection kept open for [stats]. *)
let boot ~mondet (g : Gen.serve) =
  let t0 = Clock.now_ns () in
  let s = Client.start ~mondet in
  let c = Client.conn_of (Client.connect s.Client.port) in
  let ex = List.map (fun l -> (l, Client.request c l)) (g.setup @ g.warm) in
  (s, c, ex, Clock.seconds_since t0)

let close_conn (c : Client.conn) = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* (hits, misses, evictions) from the service's own stats verb *)
let cache_stats c =
  let resp = Client.request c "stats0 stats" in
  let get k = Option.value (field resp k) ~default:0 in
  (get "hits", get "misses", get "evictions")

(* The oracle: a fresh sequential service re-answers every exchanged
   request in completion order; any byte difference is a failure. *)
let mismatches exchanges =
  let svc = Svc_service.create ~parallel:false () in
  List.fold_left
    (fun bad (req, resp) ->
      let expect = print_response (Svc_service.handle_line svc req) in
      if String.equal expect resp then bad else bad + 1)
    0 exchanges

(* ------------------------------------------------------------------ *)
(* In-process replay through the public functions: Svc_reader.feed,
   Svc_proto.parse_request, Svc_service.handle_concurrent,
   Svc_proto.print_response. *)

type replay = {
  mismatched : int;  (** outputs differing from the expected responses *)
  plain_ns : float;  (** the untraced service's summed per-request time *)
  traced_ns : float;  (** the traced service's summed per-request time *)
  minor_words : float;  (** allocated per service (both allocate alike) *)
  major_words : float;
}

let handle_classes =
  [
    "svc_service.hit"; "svc_service.miss.eval"; "svc_service.miss.holds";
    "svc_service.miss.rpq-eval"; "svc_service.miss.other";
    "svc_service.mutate.assert"; "svc_service.mutate.retract";
  ]

(* index into [handle_classes] *)
let handle_class req hit =
  match req.verb with
  | Assert _ -> 5
  | Retract _ -> 6
  | _ when hit -> 0
  | Eval _ -> 1
  | Holds _ -> 2
  | Rpq_eval _ -> 3
  | _ -> 4

let unframed = { rid = "-"; result = Error_ "framing" }

(* Replay [lines] through two fresh services (each after [prelude]) in
   lockstep, one untraced and one with a span around each public call,
   alternating which goes first: both see the same machine state at the
   same moments, so outside noise cannot tell them apart, and neither
   warms process-wide state for the other more often.  Every output is
   compared with [expected]. *)
let replay ~tr ~prelude ~expected lines =
  let fresh () =
    let svc = Svc_service.create () in
    List.iter (fun l -> ignore (Svc_service.handle_line_concurrent svc l)) prelude;
    (svc, Svc_reader.create ~max_line:(1 lsl 24))
  in
  let svc_u, reader_u = fresh () and svc_t, reader_t = fresh () in
  let cache = Svc_service.cache svc_t in
  let bufs = Array.map (fun l -> Bytes.of_string (l ^ "\n")) lines in
  let mismatched = ref 0 in
  let emit i out = if not (String.equal out expected.(i)) then incr mismatched in
  let plain i =
    let b = bufs.(i) in
    let resp =
      match Svc_reader.feed reader_u b ~off:0 ~len:(Bytes.length b) with
      | [ Svc_reader.Line l ] -> (
          match parse_request l with
          | Ok req -> Svc_service.handle_concurrent svc_u req
          | Error (rid, m) -> { rid; result = Error_ m })
      | _ -> unframed
    in
    emit i (print_response resp)
  in
  (* enter/leave around each call, no closures: the traced step adds
     clock reads and little else *)
  let n_op = Trace.name tr "op"
  and n_feed = Trace.name tr "svc_reader.feed"
  and n_parse = Trace.name tr "svc_proto.parse_request"
  and n_handle = Trace.name tr "svc_service.handle_concurrent"
  and n_print = Trace.name tr "svc_proto.print_response" in
  let classes = Array.of_list (List.map (Trace.name tr) handle_classes) in
  let traced op =
    let b = bufs.(op) in
    let root = Trace.enter tr ~name:n_op ~parent:(-1) ~op in
    let sp = Trace.enter tr ~name:n_feed ~parent:root ~op in
    let items = Svc_reader.feed reader_t b ~off:0 ~len:(Bytes.length b) in
    Trace.leave tr sp;
    let resp =
      match items with
      | [ Svc_reader.Line l ] -> (
          let sp = Trace.enter tr ~name:n_parse ~parent:root ~op in
          let parsed = parse_request l in
          Trace.leave tr sp;
          match parsed with
          | Ok req ->
              let h0 = Svc_cache.hits cache in
              let sp = Trace.enter tr ~name:n_handle ~parent:root ~op in
              let r = Svc_service.handle_concurrent svc_t req in
              Trace.leave tr sp;
              Trace.set_name tr sp classes.(handle_class req (Svc_cache.hits cache > h0));
              r
          | Error (rid, m) -> { rid; result = Error_ m })
      | _ -> unframed
    in
    let sp = Trace.enter tr ~name:n_print ~parent:root ~op in
    let out = print_response resp in
    Trace.leave tr sp;
    Trace.leave tr root;
    emit op out
  in
  let plain_ns = ref 0 in
  let timed_plain i =
    let t = Clock.now_ns () in
    plain i;
    plain_ns := !plain_ns + (Clock.now_ns () - t)
  in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  for i = 0 to Array.length lines - 1 do
    if i land 1 = 0 then begin
      timed_plain i;
      traced i
    end
    else begin
      traced i;
      timed_plain i
    end
  done;
  let g1 = Gc.quick_stat () in
  let ops = float_of_int (Array.length lines) in
  {
    mismatched = !mismatched;
    plain_ns = float_of_int !plain_ns -. (ops *. Trace.clock_ns tr);
    traced_ns = Stats.sum (Trace.durations tr "op");
    minor_words = (g1.minor_words -. g0.minor_words) /. 2.0;
    major_words = (g1.major_words -. g0.major_words) /. 2.0;
  }

(* ------------------------------------------------------------------ *)

let us ns = ns /. 1e3

let run ~mondet ~(gen : Gen.serve) ~seconds ~traced ~sum_bound ~span_file =
  (* set-up, [setup_reps] times: only the last server is kept *)
  let rec boots k acc =
    let ((s, c, _, t) as b) = boot ~mondet gen in
    if k = 1 then (b, List.rev (t :: acc))
    else begin
      close_conn c;
      Client.stop s;
      boots (k - 1) (t :: acc)
    end
  in
  let (s, c, setup_ex, _), setups = boots setup_reps [] in
  (* a large minor heap keeps the client's own collections out of the
     latencies it records; the in-process passes below run with the
     defaults again *)
  let gc = Gc.get () in
  Gc.set { gc with minor_heap_size = 1 lsl 22; space_overhead = 400 };
  let port = s.Client.port in
  let w =
    Client.closed_loop ~port ~streams:gen.streams
      ~seconds:(Float.min warm_max_s (warm_share *. seconds))
  in
  let h0, m0, e0 = cache_stats c in
  let r = Client.closed_loop ~port ~streams:gen.streams ~seconds in
  Gc.set gc;
  let h1, m1, e1 = cache_stats c in
  let rss = Client.peak_rss_mb s.Client.pid in
  close_conn c;
  Client.stop s;
  let exchanges = Array.to_list r.exchanges in
  (* set-up and warm-up exchanges are checked too, but not counted as
     attempted *)
  let unmeasured = setup_ex @ Array.to_list w.exchanges in
  let unmeasured_tally = { ok = 0; error = 0; timeout = 0; busy = 0 } in
  List.iter (tally_exchange unmeasured_tally) unmeasured;
  let t = { ok = 0; error = 0; timeout = 0; busy = 0 } in
  List.iter (tally_exchange t) exchanges;
  t.error <- t.error + r.unsolicited;
  let bad = mismatches (unmeasured @ exchanges) in
  let unmeasured_bad =
    List.length unmeasured - unmeasured_tally.ok + w.cut + w.unsolicited
  in
  let attempted = Array.length r.exchanges + r.cut in
  let failed = t.error + t.timeout + t.busy + r.cut + bad + unmeasured_bad in
  let n = Array.length r.latency_ns in
  let seg = Stats.segmented ~t0_ns:r.start_ns ~lat_ns:r.latency_ns ~done_ns:r.done_ns in
  let p50 = us seg.p50_ns in
  let hits = h1 - h0 and misses = m1 - m0 and evictions = e1 - e0 in
  let report =
    [
      Printf.sprintf
        "responses: %d ok, %d error, %d timeout, %d busy, %d cut, %d oracle \
         mismatches (of %d measured + %d set-up and %d warm-up exchanges, \
         %d of those wrong)"
        t.ok t.error t.timeout t.busy r.cut bad n (List.length setup_ex)
        (Array.length w.exchanges) unmeasured_bad;
      Stats.describe_segments seg;
      describe_verbs r.exchanges r.latency_ns;
      Printf.sprintf
        "cache over the measured phase: %d hits, %d misses, %d evictions; key \
         space %d vs capacity 512"
        hits misses evictions gen.key_space;
    ]
  in
  let end_to_end =
    [
      ( "setup_s", Stats.median (Stats.sorted_of_list setups), "s",
        Printf.sprintf "median of %d set-ups: %s" setup_reps
          (String.concat " " (List.map (Printf.sprintf "%.3f") setups)) );
      ("op_p50_us", p50, "us", Printf.sprintf "n=%d, median of %d segments" n seg.segments);
      ( "op_p99_us", us seg.tail_ns, "us",
        Printf.sprintf "p%.2f, >=10 beyond in each of %d segments" (100. *. seg.tail_p)
          seg.tail_segments );
      ( "ops_per_s", seg.per_s, "1/s",
        Printf.sprintf "n=%d in %.2fs, %d connection(s), median of %d segments" n r.elapsed_s
          (Array.length gen.streams) seg.segments );
      ( "fail_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio",
        Printf.sprintf "%d of %d attempted" failed attempted );
      ("rss_peak_mb", rss, "MB", "server VmHWM");
    ]
  in
  if not traced then { Stats.attempted; failed; end_to_end; per_layer = []; report }
  else begin
    (* the first half of the measured stream, in completion order,
       replayed in-process after the oracle has warmed the process-wide
       state (compile caches, interned symbols) *)
    let prelude = gen.setup @ gen.warm @ List.map fst (Array.to_list w.exchanges) in
    let ops = min (n / 2) replay_cap in
    let lines = Array.init ops (fun i -> fst r.exchanges.(i)) in
    let expected = Array.init ops (fun i -> snd r.exchanges.(i)) in
    let tr = Trace.create ~capacity:((5 * ops) + 16) () in
    let rp = replay ~tr ~prelude ~expected lines in
    let parts = Trace.op_totals tr ~ops in
    let parts_sum = Stats.sum parts in
    let sum_ratio = parts_sum /. rp.plain_ns in
    let sum_ok = Float.abs (sum_ratio -. 1.0) <= sum_bound in
    let inproc = Array.copy parts in
    Array.sort compare inproc;
    let center s = Stats.center (Trace.durations tr s) in
    let mutations =
      List.filter_map
        (fun (req, resp) ->
          match parse_request req with
          | Ok { verb = Assert _ | Retract _; _ } -> field resp "maintained"
          | _ -> None)
        exchanges
    in
    let fops = float_of_int ops in
    let per_layer =
      [
        ("svc_reader.feed_ns", center "svc_reader.feed");
        ("svc_proto.parse_ns", center "svc_proto.parse_request");
        ("svc_proto.print_ns", center "svc_proto.print_response");
        ("svc_service.hit_ns", center "svc_service.hit");
        ("svc_service.miss_ns.eval", center "svc_service.miss.eval");
        ("svc_service.miss_ns.holds", center "svc_service.miss.holds");
        ("svc_service.miss_ns.rpq-eval", center "svc_service.miss.rpq-eval");
        ("svc_service.mutate_ns.assert", center "svc_service.mutate.assert");
        ("svc_service.mutate_ns.retract", center "svc_service.mutate.retract");
        ("svc_tcp.residual_us", p50 -. us (Stats.median inproc));
        ( "svc_cache.hit_ratio",
          float_of_int hits /. float_of_int (max 1 (hits + misses)) );
        ("svc_cache.evictions_per_kop", 1000. *. float_of_int evictions /. float_of_int (max 1 n));
        ( "dl_incr.maintained_per_mutation",
          Stats.mean (Array.of_list (List.map float_of_int mutations)) );
        ("gc.minor_words_per_op", rp.minor_words /. fops);
        ("gc.major_words_per_op", rp.major_words /. fops);
        ("trace.overhead_ratio", rp.traced_ns /. rp.plain_ns);
        ("trace.sum_ratio", sum_ratio);
      ]
    in
    Trace.write_csv tr span_file;
    let report =
      report
      @ [
          Printf.sprintf
            "traced replay: %d requests in-process, in lockstep: untraced %.3f \
             ms, traced %.3f ms, %d replay mismatches; times net of the \
             clock's own %.1f ns"
            ops (rp.plain_ns /. 1e6) (rp.traced_ns /. 1e6) rp.mismatched
            (Trace.clock_ns tr);
          Printf.sprintf
            "sum check: feed+parse+handle+print = %.3f ms vs untraced %.3f ms \
             (ratio %.4f, bound 1 +/- %.2f): %s"
            (parts_sum /. 1e6) (rp.plain_ns /. 1e6)
            sum_ratio sum_bound
            (if sum_ok then "PASS" else "FAIL");
          Printf.sprintf "spans written to %s" span_file;
          Trace.table tr;
        ]
    in
    {
      Stats.attempted;
      failed = failed + rp.mismatched;
      end_to_end;
      per_layer;
      report;
    }
  end
