(* mondet — command-line front end.

   Queries and programs use the Parse syntax (see lib/parse/parse.mli).
   A views file is a program whose rules are grouped by head predicate:
   each group defines one view, and the views are read as one Datalog
   program, so a body atom naming a view head is that view. *)

open Cmdliner

(* reads to end of file, so a path may be a pipe such as /dev/stdin *)
let read_file path = In_channel.with_open_text path In_channel.input_all

let views_of_file path = Parse.views (read_file path)

let query_of ~goal path = Parse.query ~goal (read_file path)
let instance_of path = Parse.instance (read_file path)

(* one line per answer, sorted by its rendering as the service sorts
   them: names in string order, not intern order *)
let print_answers lines =
  List.iter (Format.printf "%s@.") (List.sort_uniq String.compare lines)

let tuple_line t = String.concat "," (List.map Const.to_string t)

let fact_line (f : Fact.t) =
  if f.args = [||] then f.rel
  else Printf.sprintf "%s(%s)" f.rel (tuple_line (Array.to_list f.args))

(* ------------------------------------------------------------------ *)

let goal_arg =
  Arg.(required & opt (some string) None & info [ "goal"; "g" ] ~docv:"GOAL"
         ~doc:"Goal predicate of the query.")

let query_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY")
let data_pos n = Arg.(required & pos n (some file) None & info [] ~docv:"DATA")
let views_pos n = Arg.(required & pos n (some file) None & info [] ~docv:"VIEWS")

let eval_cmd =
  let run qf goal df =
    let q = query_of ~goal qf in
    let i = instance_of df in
    let out = Dl_engine.eval q i in
    if Datalog.goal_arity q = 0 then
      Format.printf "%b@." (out <> [])
    else print_answers (List.map (fun t -> tuple_line (Array.to_list t)) out);
    `Ok ()
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate a Datalog query on an instance.")
    Term.(ret (const run $ query_file $ goal_arg $ data_pos 1))

let md_cmd =
  let depth =
    Arg.(value & opt int 4 & info [ "depth" ] ~doc:"Approximation depth bound.")
  in
  let run qf goal vf depth =
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
    Term.(ret (const run $ query_file $ goal_arg $ views_pos 1 $ depth))

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
    print_answers (List.map fact_line (Instance.facts (View.image views i)));
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
  let run regex data graph from_ to_ views =
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
            let t = Rpq_translate.translate e in
            ( (fun () -> Rpq_translate.eval t i),
              (fun c -> Rpq_translate.eval_from t i c),
              fun x y -> Rpq_translate.holds t i x y )
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
          print_answers
            (List.map (fun (x, y) -> tuple_line [ x; y ]) (pair_mode ()))
      | Some c, None ->
          print_answers
            (List.map Const.to_string (from_mode (Const.named c)))
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
       $ views_arg))

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
      cache_file =
    (* the quota sheds socket clients; a stdio pipe is one client *)
    let quota = if socket = None && tcp = None then None else quota in
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
       $ cache_file_arg))

let batch_cmd =
  let run script cache cache_file =
    let service = Svc_service.create ~cache_capacity:cache () in
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
         "One-shot the decision service on a request script: each line is \
          handled in order, as $(b,serve) on stdio handles it, and the \
          responses print in request order.")
    Term.(ret (const run $ script_arg $ cache_arg $ cache_file_arg))

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

let main =
  Cmd.group
    (Cmd.info "mondet" ~version:"1.0"
       ~doc:
         "Monotonic determinacy and rewritability for recursive queries and \
          views (PODS 2020 reproduction).")
    [
      eval_cmd; md_cmd; rewrite_cmd; image_cmd; pebble_cmd; tiling_cmd;
      rpq_cmd; serve_cmd; batch_cmd; client_cmd;
    ]

(* The one place a subcommand's exceptions land.  An input file that
   does not parse, or one outside a decision procedure's scope, is an
   answer to the user, not a crash; anything else is reported as
   cmdliner reports it. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Parse.Error m ->
      Printf.eprintf "mondet: parse error: %s\n%!" m;
      exit 2
  | exception Unsupported.Error m ->
      Printf.eprintf "mondet: unsupported: %s\n%!" m;
      exit 2
  | exception e ->
      Printf.eprintf "mondet: internal error, uncaught exception:\n        %s\n%!"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
