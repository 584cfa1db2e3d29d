(* mondet — command-line front end.

   Queries and programs use the Parse syntax (see lib/parse/parse.mli).
   A views file is a program whose rules are grouped by head predicate:
   each group defines one view (a CQ view if a single rule, a UCQ view
   otherwise). *)

open Cmdliner

(* reads to end of file, so a path may be a pipe such as /dev/stdin *)
let read_file path = In_channel.with_open_text path In_channel.input_all

let views_of_file path = Parse.views (read_file path)

let query_of ~goal path = Parse.query ~goal (read_file path)
let instance_of path = Parse.instance (read_file path)

(* ------------------------------------------------------------------ *)

let goal_arg =
  Arg.(required & opt (some string) None & info [ "goal"; "g" ] ~docv:"GOAL"
         ~doc:"Goal predicate of the query.")

let query_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY")
let data_pos n = Arg.(required & pos n (some file) None & info [] ~docv:"DATA")
let views_pos n = Arg.(required & pos n (some file) None & info [] ~docv:"VIEWS")

let engine_arg =
  let engine_conv =
    Arg.enum (List.map (fun s -> (Dl_engine.to_string s, s)) Dl_engine.all)
  in
  Arg.(
    value
    & opt engine_conv (Dl_engine.default ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Datalog evaluation strategy: $(b,naive) (scan-based naive \
           iteration, the test oracle), $(b,vm) (semi-naive rounds over \
           static join plans lowered to register bytecode, with mid-round \
           cancellation; the default) or $(b,magic) (magic-sets demand \
           transformation over the vm engine).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the domain pool that runs the batch's cache-missed \
           requests side by side (the coordinating thread included).  \
           Defaults to $(b,MONDET_DOMAINS) if set, else the machine's \
           recommended domain count; clamped to [1, 64].")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Report evaluation details.")

(* the engine choice is a process-wide setting so that it also reaches the
   call sites with no [?engine] parameter in scope (view evaluation inside
   images, rewriting verification, ...) *)
let set_engine verbose e =
  Dl_engine.set_default e;
  if verbose then
    Format.eprintf "engine: %s@." (Dl_engine.to_string (Dl_engine.default ()))

let eval_cmd =
  let run qf goal df engine verbose =
    set_engine verbose engine;
    let q = query_of ~goal qf in
    let i = instance_of df in
    let out = Dl_engine.eval q i in
    if Datalog.goal_arity q = 0 then
      Format.printf "%b@." (out <> [])
    else
      List.iter
        (fun t ->
          Format.printf "%a@."
            Fmt.(array ~sep:(any ",") Const.pp)
            t)
        out;
    `Ok ()
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate a Datalog query on an instance.")
    Term.(
      ret (const run $ query_file $ goal_arg $ data_pos 1 $ engine_arg
           $ verbose_arg))

let md_cmd =
  let depth =
    Arg.(value & opt int 4 & info [ "depth" ] ~doc:"Approximation depth bound.")
  in
  let run qf goal vf depth engine verbose =
    set_engine verbose engine;
    let q = query_of ~goal qf in
    let views = views_of_file vf in
    let verdict = Md_decide.decide ~max_depth:depth q views in
    Format.printf "%a@." Md_decide.pp_verdict verdict;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "md"
       ~doc:
         "Check monotonic determinacy of a Boolean query over views (exact \
          for CQ/UCQ queries, bounded canonical-test search otherwise).")
    Term.(
      ret (const run $ query_file $ goal_arg $ views_pos 1 $ depth $ engine_arg
           $ verbose_arg))

let rewrite_cmd =
  let meth =
    Arg.(
      value
      & opt (enum [ ("inverse-rules", `Inverse); ("prop8", `Prop8) ]) `Inverse
      & info [ "method" ] ~doc:"Rewriting algorithm: inverse-rules or prop8.")
  in
  let run qf goal vf meth =
    let q = query_of ~goal qf in
    let views = views_of_file vf in
    (match meth with
    | `Inverse ->
        let rw = Md_rewrite.inverse_rules q views in
        Format.printf "%a@." Datalog.pp_query rw
    | `Prop8 -> (
        match Dl_fragment.to_ucq q with
        | Some u ->
            let rw = Md_rewrite.prop8_ucq u views in
            Format.printf "%a@." Ucq.pp rw
        | None -> Format.printf "prop8 needs a CQ or UCQ query@."));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Compute a rewriting of the query over the views.")
    Term.(ret (const run $ query_file $ goal_arg $ views_pos 1 $ meth))

let image_cmd =
  let run vf df =
    let views = views_of_file vf in
    let i = instance_of df in
    Format.printf "%a@." Instance.pp (View.image views i);
    `Ok ()
  in
  Cmd.v (Cmd.info "image" ~doc:"Compute the view image of an instance.")
    Term.(ret (const run $ views_pos 0 $ data_pos 1))

let pebble_cmd =
  let k_arg = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Number of pebbles.") in
  let run k d1 d2 =
    let i1 = instance_of d1 and i2 = instance_of d2 in
    match Pebble.duplicator_wins ~k i1 i2 with
    | wins ->
        Format.printf "duplicator wins the existential %d-pebble game: %b@." k wins;
        `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "pebble"
       ~doc:"Play the existential k-pebble game between two instances.")
    Term.(ret (const run $ k_arg $ data_pos 0 $ data_pos 1))

let tiling_cmd =
  let n_arg = Arg.(value & opt int 3 & info [ "width" ] ~doc:"Grid width.") in
  let m_arg = Arg.(value & opt int 3 & info [ "height" ] ~doc:"Grid height.") in
  let run n m =
    let tps = Parity.tp_star in
    let g = Tiling.grid n m in
    Format.printf "TP* (Lemma 6): grid %dx%d tilable: %b;  →2 I_TP*: %b@." n m
      (Tiling.can_tile g tps)
      (Pebble.duplicator_wins ~k:2 g (Tiling.structure tps));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "tiling" ~doc:"Run the Lemma 6 parity-tiling separation on a grid.")
    Term.(ret (const run $ n_arg $ m_arg))

let rpq_cmd =
  let rpq_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REGEX"
          ~doc:
            "The regular path query: a regex over edge relation names \
             with $(b,|), concatenation ($(b,.) optional), $(b,*), \
             $(b,+), $(b,?), $(b,^) (reversal) and $(b,eps).")
  in
  let data_opt = Arg.(value & pos 1 (some file) None & info [] ~docv:"DATA") in
  let graph_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "graph" ] ~docv:"SPEC"
          ~doc:
            "Generate the instance instead of reading DATA: \
             $(b,chain:N), $(b,cycle:N), $(b,grid:HxW) or \
             $(b,scale-free:NODES:EDGES[:SEED]).")
  in
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"C"
          ~doc:"Anchor at source $(docv): print the reachable nodes.")
  in
  let to_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "to" ] ~docv:"C"
          ~doc:
            "With $(b,--from), decide membership of the pair and print a \
             Boolean.")
  in
  let views_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "views" ] ~docv:"FILE"
          ~doc:
            "RPQ view definitions ($(b,name = regex ;) ...): evaluate \
             the maximal contained rewriting of the query over the views \
             (certain answers) instead of the query directly, reporting \
             whether the rewriting is lossless.")
  in
  let graph_of_spec s =
    let int_part p =
      match int_of_string_opt p with
      | Some n -> n
      | None -> failwith (Printf.sprintf "bad graph spec %S" s)
    in
    match String.split_on_char ':' s with
    | [ "chain"; n ] -> Rpq_graph.chain (int_part n)
    | [ "cycle"; n ] -> Rpq_graph.cycle (int_part n)
    | [ "grid"; hw ] -> (
        match String.split_on_char 'x' hw with
        | [ h; w ] -> Rpq_graph.grid (int_part h) (int_part w)
        | _ -> failwith (Printf.sprintf "bad graph spec %S" s))
    | [ "scale-free"; n; e ] ->
        Rpq_graph.scale_free ~nodes:(int_part n) ~edges:(int_part e) ()
    | [ "scale-free"; n; e; seed ] ->
        Rpq_graph.scale_free ~seed:(int_part seed) ~nodes:(int_part n)
          ~edges:(int_part e) ()
    | _ -> failwith (Printf.sprintf "bad graph spec %S" s)
  in
  let run regex data graph from_ to_ views engine verbose =
    set_engine verbose engine;
    try
      let e = Rpq.parse regex in
      let i =
        match (data, graph) with
        | Some f, None -> instance_of f
        | None, Some s -> graph_of_spec s
        | None, None -> failwith "give a DATA file or --graph"
        | Some _, Some _ -> failwith "give DATA or --graph, not both"
      in
      let pair_mode, from_mode, bool_mode =
        match views with
        | None ->
            ( (fun () -> Rpq_translate.eval e i),
              (fun c -> Rpq_translate.eval_from e i c),
              fun x y -> Rpq_translate.holds e i x y )
        | Some vf ->
            let defs = Rpq.parse_defs (read_file vf) in
            let rw = Rpq_views.rewrite ~views:defs e in
            (match rw.Rpq_views.gap with
            | None -> Format.printf "lossless: true@."
            | Some w ->
                Format.printf "lossless: false (gap %s)@."
                  (Rpq_nfa.word_to_string w));
            ( (fun () -> Rpq_views.certain rw i),
              (fun c -> Rpq_views.certain_from rw i c),
              fun x y -> Rpq_views.certain_holds rw i x y )
      in
      (match (from_, to_) with
      | None, Some _ -> failwith "--to needs --from"
      | None, None ->
          List.iter
            (fun (x, y) ->
              Format.printf "%a,%a@." Const.pp x Const.pp y)
            (pair_mode ())
      | Some c, None ->
          List.iter
            (fun x -> Format.printf "%a@." Const.pp x)
            (from_mode (Const.named c))
      | Some c, Some d ->
          Format.printf "%b@." (bool_mode (Const.named c) (Const.named d)));
      `Ok ()
    with
    | Rpq.Error m -> `Error (false, "rpq parse error: " ^ m)
    | Failure m | Invalid_argument m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "rpq"
       ~doc:
         "Evaluate a regular path query on a graph instance — directly, \
          or as certain answers through the maximal contained rewriting \
          over RPQ views.")
    Term.(
      ret
        (const run $ rpq_pos $ data_opt $ graph_arg $ from_arg $ to_arg
       $ views_arg $ engine_arg $ verbose_arg))

(* ------------------------------------------------------------------ *)
(* The decision service (lib/service): [serve] runs the long-lived
   server, [batch] one-shots a request script, [client] drives a running
   socket server in lockstep. *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on (resp. connect to) a Unix-domain socket at $(docv) \
           instead of stdio.  The server runs the same worker pool, \
           admission control and line cap as $(b,--tcp); a stale socket \
           file is reclaimed, and the file is removed on shutdown.")

(* HOST:PORT (":PORT" and "*:PORT" bind every interface) *)
let tcp_addr_of_string s =
  match String.rindex_opt s ':' with
  | None -> failwith (s ^ ": expected HOST:PORT")
  | Some i ->
      let host = String.sub s 0 i in
      let port =
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some p when p >= 0 && p < 65536 -> p
        | _ -> failwith (s ^ ": bad port")
      in
      let ip =
        if host = "" || host = "*" then Unix.inet_addr_any
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> failwith (host ^ ": unknown host"))
      in
      Unix.ADDR_INET (ip, port)

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve on (resp. connect to) a TCP address instead of stdio.  \
           The server handles connections on a fixed pool of worker \
           domains (see $(b,--workers)); $(b,:PORT) binds every \
           interface, port $(b,0) picks an ephemeral port (printed on \
           stderr).")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Connection worker domains for $(b,--tcp) and $(b,--socket) \
           (clamped to [1, 64]).  Each worker multiplexes its share of the \
           connections; more workers than cores buys nothing.")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Admission cap for $(b,--tcp) and $(b,--socket): a connection \
           arriving while $(docv) are active is answered $(b,- busy) and \
           closed (shed, not queued).")

let max_line_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "max-line" ] ~docv:"BYTES"
        ~doc:
          "Per-request line cap for $(b,--tcp) and $(b,--socket); longer \
           lines are discarded as they stream in and answered with an error.")

let quota_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "quota" ] ~docv:"N"
        ~doc:
          "Per-session request quota for $(b,--tcp) and $(b,--socket): \
           at most $(docv) requests per quota window (see \
           $(b,--quota-window)); excess requests are answered $(b,busy) \
           without being evaluated.")

let quota_window_arg =
  Arg.(
    value & opt float 1.0
    & info [ "quota-window" ] ~docv:"SECONDS"
        ~doc:"Length of the $(b,--quota) window (default 1s).")

let cache_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-file" ] ~docv:"PATH"
        ~doc:
          "Persist the result cache: reload a snapshot from $(docv) on \
           boot (ignored with a warning if invalid) and write one back \
           on shutdown — EOF on stdio, SIGTERM/SIGINT on socket and TCP \
           servers.  Snapshots carry the symbol table, so fingerprint \
           keys stay valid across restarts.")

(* Reload the snapshot before serving; a bad snapshot warns and serves
   cold rather than refusing to boot. *)
let load_cache_file service = function
  | None -> ()
  | Some path -> (
      match Svc_persist.load path service with
      | Ok 0 -> ()
      | Ok n -> Printf.eprintf "mondet: reloaded %d cached entries\n%!" n
      | Error m ->
          Printf.eprintf "mondet: ignoring cache snapshot %s: %s\n%!" path m)

let save_cache_file service = function
  | None -> ()
  | Some path -> Svc_persist.save path service

(* Graceful shutdown: SIGTERM/SIGINT flip a flag the serve loops poll,
   so the server closes its sockets and snapshots its cache instead of
   dying mid-write. *)
let install_stop_signals () =
  let stop = Atomic.make false in
  let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  (try Sys.set_signal Sys.sigterm handle with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ -> ());
  fun () -> Atomic.get stop

let cache_arg =
  Arg.(
    value
    & opt int 512
    & info [ "cache" ] ~docv:"N"
        ~doc:"Capacity of the LRU result cache, in entries.")

let sequential_arg =
  Arg.(
    value & flag
    & info [ "sequential" ]
        ~doc:
          "Handle the batch sequentially on the coordinating thread \
           instead of dispatching cache misses onto the domain pool.")

let read_lines_of = function
  | "-" ->
      let rec go acc =
        match input_line stdin with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go []
  | path -> String.split_on_char '\n' (read_file path)

let script_arg =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"SCRIPT"
        ~doc:"Request script, one request per line ($(b,-) for stdin).")

let serve_cmd =
  let run socket tcp cache workers max_conns max_line quota quota_window
      cache_file engine verbose =
    set_engine verbose engine;
    let service =
      Svc_service.create ~cache_capacity:cache ?quota ~quota_window ()
    in
    load_cache_file service cache_file;
    let serve addr =
      let stop = install_stop_signals () in
      let config = { Svc_tcp.workers; max_conns; max_line } in
      Svc_tcp.serve ~stop
        ~on_listen:(fun bound ->
          match bound with
          | Unix.ADDR_INET (ip, port) ->
              Printf.eprintf "mondet: serving on %s:%d\n%!"
                (Unix.string_of_inet_addr ip)
                port
          | Unix.ADDR_UNIX _ -> ())
        config service addr;
      save_cache_file service cache_file;
      `Ok ()
    in
    match (socket, tcp) with
    | Some _, Some _ -> `Error (true, "--socket and --tcp are exclusive")
    | None, None ->
        Svc_server.serve_stdio service;
        save_cache_file service cache_file;
        `Ok ()
    | Some path, None -> serve (Unix.ADDR_UNIX path)
    | None, Some spec -> (
        match tcp_addr_of_string spec with
        | exception Failure m -> `Error (true, m)
        | addr -> serve addr)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the decision service: named sessions of loaded \
          programs/views/instances, $(b,assert)/$(b,retract) verbs that \
          edit a session instance in place (incrementally repairing its \
          materialized fixpoints), an LRU result cache (optionally \
          persisted across restarts with $(b,--cache-file)), per-request \
          deadlines, and — with $(b,--tcp) or $(b,--socket) — \
          concurrent connection handling on a fixed pool of worker \
          domains with shed-not-queue admission control.  Protocol: see \
          lib/service/svc_proto.mli and the README.")
    Term.(
      ret
        (const run $ socket_arg $ tcp_arg $ cache_arg $ workers_arg
       $ max_conns_arg $ max_line_arg $ quota_arg $ quota_window_arg
       $ cache_file_arg $ engine_arg $ verbose_arg))

let batch_cmd =
  let run script cache sequential cache_file engine domains verbose =
    Option.iter Dl_parallel.set_domains domains;
    set_engine verbose engine;
    if verbose then Format.eprintf "domains: %d@." (Dl_parallel.domains ());
    let service =
      Svc_service.create ~cache_capacity:cache ~parallel:(not sequential) ()
    in
    load_cache_file service cache_file;
    let lines =
      List.filter (fun l -> String.trim l <> "") (read_lines_of script)
    in
    List.iter
      (fun r -> print_endline (Svc_proto.print_response r))
      (Svc_service.handle_lines service lines);
    save_cache_file service cache_file;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "One-shot the decision service on a request script: all lines \
          form one batch (loads and assert/retract mutations execute at \
          their position; cache-missed eval/holds requests overlap on \
          the domain pool) and the responses print in request order.")
    Term.(
      ret
        (const run $ script_arg $ cache_arg $ sequential_arg $ cache_file_arg
       $ engine_arg $ domains_arg $ verbose_arg))

let client_cmd =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit nonzero if any response is not $(b,ok).")
  in
  let run socket tcp strict script =
    let addr =
      match (socket, tcp) with
      | Some path, None -> Ok (Unix.ADDR_UNIX path)
      | None, Some spec -> (
          match tcp_addr_of_string spec with
          | addr -> Ok addr
          | exception Failure m -> Error m)
      | _ -> Error "exactly one of --socket or --tcp is required"
    in
    match addr with
    | Error m -> `Error (true, m)
    | Ok addr ->
        let lines = read_lines_of script in
        let bad = Svc_server.client ~addr lines stdout in
        if strict && bad > 0 then
          `Error (false, string_of_int bad ^ " non-ok responses")
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a running $(b,mondet serve) ($(b,--socket) or $(b,--tcp)) \
          in lockstep: send each script line, await and print its \
          response.")
    Term.(ret (const run $ socket_arg $ tcp_arg $ strict $ script_arg))

(* ------------------------------------------------------------------ *)
(* bench-serve: the load harness.  Runs the TCP server in-process on an
   ephemeral loopback port, drives it with Svc_loadgen, verifies every
   response against the sequential oracle, and optionally merges
   latency rows into a mondet-bench/1 JSON trajectory. *)

(* same row format Bench_json writes and bench_diff parses *)
let read_bench_rows path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
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
  end

let write_bench_rows path rows =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"mondet-bench/1\",\n";
  output_string oc "  \"unit\": \"ns_per_run\",\n";
  output_string oc "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, t) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_run\": %.2f}%s\n" name
        t
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

(* replace matching rows in place, append the rest *)
let merge_bench_rows path fresh =
  let existing = read_bench_rows path in
  let replaced =
    List.map
      (fun (n, t) ->
        match List.assoc_opt n fresh with Some t' -> (n, t') | None -> (n, t))
      existing
  in
  let appended =
    List.filter (fun (n, _) -> not (List.mem_assoc n existing)) fresh
  in
  write_bench_rows path (replaced @ appended)

let bench_serve_cmd =
  let conns_arg =
    Arg.(
      value & opt int 32
      & info [ "c"; "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let per_conn_arg =
    Arg.(
      value & opt int 64
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Requests per connection (closed loop: one outstanding).")
  in
  let warm_flag =
    Arg.(
      value & flag
      & info [ "warm" ]
          ~doc:
            "After the cold pass, run the identical workload again \
             against the now-warm server and record a $(b,-warm) row.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:
            "Merge the p50-latency rows into a mondet-bench/1 JSON file \
             (rows with the same name are replaced, others kept), so \
             bench_diff can gate them.")
  in
  let no_verify_flag =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the sequential-oracle byte-comparison pass.")
  in
  let run conns per_conn workers warm json_out no_verify =
    (* PR3 caveat, restated where the numbers are produced: on one core
       the concurrency rows measure multiplexing and scheduling
       overhead, not parallel speedup *)
    if Domain.recommended_domain_count () = 1 then
      print_endline
        "note: single core available — concurrency rows record \
         scheduling/multiplexing overhead, not parallel speedup";
    let service = Svc_service.create ~parallel:false () in
    let stop = Atomic.make false in
    let bound = ref None in
    let mu = Mutex.create () in
    let cv = Condition.create () in
    let config =
      { Svc_tcp.workers; max_conns = conns + 8; max_line = 1 lsl 20 }
    in
    let server =
      Domain.spawn (fun () ->
          Svc_tcp.serve
            ~stop:(fun () -> Atomic.get stop)
            ~on_listen:(fun a ->
              Mutex.lock mu;
              bound := Some a;
              Condition.signal cv;
              Mutex.unlock mu)
            config service
            (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)))
    in
    Mutex.lock mu;
    while !bound = None do
      Condition.wait cv mu
    done;
    let addr = Option.get !bound in
    Mutex.unlock mu;
    let pass name =
      let stats, exchanges =
        Svc_loadgen.run ~addr ~conns ~per_conn ~verify:false ()
      in
      Printf.printf
        "%s: %d requests over %d conns in %.2f s\n\
        \  throughput %.1f req/s   p50 %.1f µs   p99 %.1f µs\n\
        \  ok %d  busy %d  failed %d\n%!"
        name stats.Svc_loadgen.total conns stats.Svc_loadgen.elapsed_s
        stats.Svc_loadgen.throughput_rps
        (stats.Svc_loadgen.p50_ns /. 1e3)
        (stats.Svc_loadgen.p99_ns /. 1e3)
        stats.Svc_loadgen.ok stats.Svc_loadgen.busy stats.Svc_loadgen.failed;
      (name, stats, exchanges)
    in
    let cold = pass (Printf.sprintf "service/tcp-c%d" conns) in
    let passes =
      if warm then [ cold; pass (Printf.sprintf "service/tcp-c%d-warm" conns) ]
      else [ cold ]
    in
    (* stop the server and join its domains before the oracle replay:
       the join publishes every worker-side write *)
    Atomic.set stop true;
    Domain.join server;
    let bad = ref 0 in
    List.iter
      (fun (name, stats, exchanges) ->
        bad := !bad + stats.Svc_loadgen.failed + stats.Svc_loadgen.busy;
        if not no_verify then begin
          let mism = Svc_loadgen.verify_exchanges exchanges in
          if mism > 0 then begin
            Printf.printf "%s: %d responses differ from the oracle\n%!" name
              mism;
            bad := !bad + mism
          end
          else Printf.printf "%s: all responses match the oracle\n%!" name
        end)
      passes;
    (match json_out with
    | Some path ->
        merge_bench_rows path
          (List.map
             (fun (name, stats, _) -> (name, stats.Svc_loadgen.p50_ns))
             passes);
        Printf.printf "merged %d row(s) into %s\n%!" (List.length passes) path
    | None -> ());
    if !bad > 0 then
      `Error (false, Printf.sprintf "%d bad/mismatched responses" !bad)
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Load-test the TCP decision service in-process: N closed-loop \
          connections drive a deterministic mixed workload \
          (eval/holds/mondet-test over grid and diamond sessions), every \
          response is verified byte-identical against a sequential \
          in-process oracle, and throughput plus p50/p99 latency are \
          reported (optionally merged into a bench JSON for the \
          regression gate).")
    Term.(
      ret
        (const run $ conns_arg $ per_conn_arg $ workers_arg $ warm_flag
       $ json_out_arg $ no_verify_flag))

let main =
  Cmd.group
    (Cmd.info "mondet" ~version:"1.0"
       ~doc:
         "Monotonic determinacy and rewritability for recursive queries and \
          views (PODS 2020 reproduction).")
    [
      eval_cmd; md_cmd; rewrite_cmd; image_cmd; pebble_cmd; tiling_cmd;
      rpq_cmd; serve_cmd; batch_cmd; client_cmd; bench_serve_cmd;
    ]

let () = exit (Cmd.eval main)
