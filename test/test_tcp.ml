(* Socket front-end tests: length-capped framing under arbitrary write
   splits, stale-socket reclaim, the line cap on TCP and Unix-domain
   listeners, admission control and per-session quotas shedding with
   [busy], the concurrent server cross-checked against the sequential
   oracle, and cache snapshot round-trips. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Svc_reader: qcheck round-trips through arbitrary chunkings. *)

let reader_cap = 16

let reader_gen =
  QCheck.Gen.(
    let line =
      map
        (fun l -> String.concat "" (List.map (String.make 1) l))
        (list_size (int_bound 24)
           (oneofl [ 'a'; 'b'; ' '; 'x'; '('; ')'; ','; '9' ]))
    in
    triple (list_size (int_bound 8) line) bool
      (list_size (int_range 1 12) (int_range 1 7)))

let reader_print (lines, crlf, chunks) =
  Printf.sprintf "lines=[%s] crlf=%b chunks=[%s]"
    (String.concat ";" (List.map (Printf.sprintf "%S") lines))
    crlf
    (String.concat ";" (List.map string_of_int chunks))

(* feed [data] in the cyclic chunk sizes given, collecting items *)
let feed_chunked reader data chunks =
  let items = ref [] in
  let n = String.length data in
  let pos = ref 0 in
  let rec go = function
    | [] -> go chunks
    | c :: rest ->
        if !pos < n then begin
          let len = min c (n - !pos) in
          items :=
            !items
            @ Svc_reader.feed reader (Bytes.of_string data) ~off:!pos ~len;
          pos := !pos + len;
          go rest
        end
  in
  if n > 0 then go chunks;
  !items

let qcheck_reader_roundtrip =
  QCheck.Test.make ~name:"capped reader reassembles arbitrary splits"
    ~count:300
    (QCheck.make ~print:reader_print reader_gen)
    (fun (lines, crlf, chunks) ->
      let terminator = if crlf then "\r\n" else "\n" in
      let data = String.concat "" (List.map (fun l -> l ^ terminator) lines) in
      let reader = Svc_reader.create ~max_line:reader_cap in
      let items = feed_chunked reader data chunks in
      let expected =
        List.map
          (fun l ->
            if String.length l > reader_cap then Svc_reader.Overlong
            else Svc_reader.Line l)
          lines
      in
      items = expected)

let test_reader_edges () =
  let r = Svc_reader.create ~max_line:5 in
  let feed s = Svc_reader.feed r (Bytes.of_string s) ~off:0 ~len:(String.length s) in
  (* exactly at the cap, with a CRLF: the CR must not count *)
  check_bool "at-cap CRLF line accepted" true
    (feed "abcde\r\n" = [ Svc_reader.Line "abcde" ]);
  (* one over the cap *)
  check_bool "cap+1 rejected" true (feed "abcdef\n" = [ Svc_reader.Overlong ]);
  (* a long line is dropped as it streams, then framing recovers *)
  check_bool "streamed overlong" true (feed (String.make 100 'z') = []);
  check_bool "overlong surfaces at terminator, next line clean" true
    (feed "zz\nok\n" = [ Svc_reader.Overlong; Svc_reader.Line "ok" ]);
  check_bool "bounded while discarding" true (Svc_reader.pending r <= 6)

(* ------------------------------------------------------------------ *)
(* Stale Unix-socket reclaim (bind_unix). *)

let test_stale_socket_reclaim () =
  let path = Filename.temp_file "mondet-stale" ".sock" in
  Sys.remove path;
  (* a listener that dies without unlinking leaves a stale file *)
  let dead = Svc_tcp.bind_unix ~path in
  Unix.listen dead 1;
  Unix.close dead;
  check_bool "stale socket file left behind" true (Sys.file_exists path);
  (* rebinding must reclaim it *)
  let fresh = Svc_tcp.bind_unix ~path in
  Unix.listen fresh 1;
  (* ... but a *live* listener must not be stolen *)
  (match Svc_tcp.bind_unix ~path with
  | exception Failure _ -> ()
  | fd ->
      Unix.close fd;
      Alcotest.fail "bind_unix stole a live listener's address");
  Unix.close fresh;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* In-process TCP server scaffolding. *)

let with_server ?(config = Svc_tcp.default_config)
    ?(addr = Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) ?handle service f =
  let stop = Atomic.make false in
  let bound = ref None in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let d =
    Domain.spawn (fun () ->
        Svc_tcp.serve
          ~stop:(fun () -> Atomic.get stop)
          ~on_listen:(fun a ->
            Mutex.lock mu;
            bound := Some a;
            Condition.signal cv;
            Mutex.unlock mu)
          ?handle config service addr)
  in
  Mutex.lock mu;
  while !bound = None do
    Condition.wait cv mu
  done;
  let addr = Option.get !bound in
  Mutex.unlock mu;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () -> f addr)

let connect addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let roundtrip ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* ------------------------------------------------------------------ *)

let load_lines =
  [
    "l1 load s program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
     T(z,y).";
    "l2 load s instance i : E(a,b). E(b,c).";
  ]

let test_tcp_basic () =
  let service = Svc_service.create ~parallel:false () in
  with_server service (fun addr ->
      let fd, ic, oc = connect addr in
      List.iter (fun l -> ignore (roundtrip ic oc l)) load_lines;
      check_string "eval over tcp" "q1 ok a,b;a,c;b,c"
        (roundtrip ic oc "q1 eval s tc i");
      check_string "holds over tcp" "q2 ok true"
        (roundtrip ic oc "q2 holds s tc i (a,c)");
      let stats = roundtrip ic oc "q3 stats" in
      check_bool "stats line answered" true
        (String.length stats > 0 && String.sub stats 0 2 = "q3");
      Unix.close fd)

(* A views payload is one Datalog program over TCP too: the cycle
   query finds no failing canonical test over the tc views. *)
let test_tcp_tc_views () =
  let service = Svc_service.create ~parallel:false () in
  with_server service (fun addr ->
      let fd, ic, oc = connect addr in
      List.iter
        (fun l -> ignore (roundtrip ic oc l))
        [
          "l1 load s program cyc goal G : P(x,y) <- E(x,y). P(x,y) <- \
           E(x,z), P(z,y). G() <- P(x,x).";
          "l2 load s views tc : T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).";
        ];
      check_string "cycle over tc" "q1 ok no-failure-up-to 340"
        (roundtrip ic oc "q1 mondet-test s cyc tc");
      Unix.close fd)

let test_tcp_oversized_line () =
  let service = Svc_service.create ~parallel:false () in
  let config = { Svc_tcp.default_config with Svc_tcp.max_line = 100 } in
  with_server ~config service (fun addr ->
      let fd, ic, oc = connect addr in
      List.iter (fun l -> ignore (roundtrip ic oc l)) load_lines;
      let resp = roundtrip ic oc ("qq eval s tc " ^ String.make 200 'x') in
      check_string "oversized line rejected" "- error line exceeds 100 bytes"
        resp;
      (* the connection survives and keeps its framing *)
      check_string "next request clean" "q2 ok a,b;a,c;b,c"
        (roundtrip ic oc "q2 eval s tc i");
      Unix.close fd)

(* Unix-domain sockets run on the same worker loop: the line cap holds
   and the connection keeps its framing, and stopping the server
   removes the socket file. *)
let test_unix_socket () =
  let path = Filename.temp_file "mondet-unix" ".sock" in
  Sys.remove path;
  let service = Svc_service.create ~parallel:false () in
  let config = { Svc_tcp.default_config with Svc_tcp.max_line = 64 } in
  with_server ~config ~addr:(Unix.ADDR_UNIX path) service (fun addr ->
      check_bool "listening on the path" true (addr = Unix.ADDR_UNIX path);
      let fd, ic, oc = connect addr in
      List.iter
        (fun l -> ignore (roundtrip ic oc l))
        [ "l1 load s program tc goal T : T(x,y) <- E(x,y).";
          "l2 load s instance i : E(a,b). E(b,c)." ];
      check_string "200-byte line rejected" "- error line exceeds 64 bytes"
        (roundtrip ic oc ("qq eval s tc " ^ String.make 187 'x'));
      check_string "next request on the connection" "q2 ok a,b;b,c"
        (roundtrip ic oc "q2 eval s tc i");
      Unix.close fd);
  check_bool "socket file removed on stop" false (Sys.file_exists path)

(* An exception escaping the request handler is answered [- error
   internal: ...] and the single worker keeps serving: the next request
   on the same connection and one on a new connection both answer. *)
let test_tcp_handler_exception () =
  let service = Svc_service.create ~parallel:false () in
  let config = { Svc_tcp.default_config with Svc_tcp.workers = 1 } in
  let handle line =
    if String.starts_with ~prefix:"boom" line then raise Not_found
    else Svc_service.handle_line_concurrent service line
  in
  with_server ~config ~handle service (fun addr ->
      let fd, ic, oc = connect addr in
      List.iter (fun l -> ignore (roundtrip ic oc l)) load_lines;
      check_string "escaped exception answered" "- error internal: Not_found"
        (roundtrip ic oc "boom");
      check_string "same connection still served" "q1 ok a,b;a,c;b,c"
        (roundtrip ic oc "q1 eval s tc i");
      let fd2, ic2, oc2 = connect addr in
      check_string "new connection served" "q2 ok true"
        (roundtrip ic2 oc2 "q2 holds s tc i (a,c)");
      Unix.close fd2;
      Unix.close fd)

let test_tcp_admission_shed () =
  let service = Svc_service.create ~parallel:false () in
  let config = { Svc_tcp.default_config with Svc_tcp.max_conns = 1 } in
  with_server ~config service (fun addr ->
      let fd1, ic1, oc1 = connect addr in
      (* a round-trip proves conn 1 was accepted and counted *)
      ignore (roundtrip ic1 oc1 (List.hd load_lines));
      let fd2, ic2, _ = connect addr in
      check_string "second connection shed with busy" "- busy"
        (input_line ic2);
      check_bool "and closed" true
        (match input_line ic2 with
        | exception End_of_file -> true
        | _ -> false);
      Unix.close fd2;
      (* the first connection is unaffected *)
      ignore (roundtrip ic1 oc1 (List.nth load_lines 1));
      check_string "first connection still served" "q1 ok a,b;a,c;b,c"
        (roundtrip ic1 oc1 "q1 eval s tc i");
      Unix.close fd1)

let test_tcp_quota_busy () =
  (* window far longer than the test: deterministically, the first
     [limit] requests pass and every later one sheds *)
  let service =
    Svc_service.create ~parallel:false ~quota:4 ~quota_window:3600.0 ()
  in
  with_server service (fun addr ->
      let fd, ic, oc = connect addr in
      List.iter (fun l -> ignore (roundtrip ic oc l)) load_lines;
      check_string "third request passes" "q1 ok a,b;a,c;b,c"
        (roundtrip ic oc "q1 eval s tc i");
      check_string "fourth request passes" "q2 ok true"
        (roundtrip ic oc "q2 holds s tc i (a,c)");
      check_string "fifth request sheds" "q3 busy"
        (roundtrip ic oc "q3 eval s tc i");
      check_string "and stays shed inside the window" "q4 busy"
        (roundtrip ic oc "q4 holds s tc i (a,b)");
      (* stats is quota-exempt (no session) and still answers *)
      let stats = roundtrip ic oc "q5 stats" in
      check_bool "stats exempt from quota" true
        (String.sub stats 0 5 = "q5 ok");
      Unix.close fd)

let test_tcp_stress_oracle () =
  (* 8 x 12 and the 4 x 32 shape of the retired CI load gate *)
  List.iter
    (fun (conns, per_conn) ->
      let service = Svc_service.create ~parallel:false () in
      let config = { Svc_tcp.default_config with Svc_tcp.max_conns = 40 } in
      let stats, exchanges =
        with_server ~config service (fun addr ->
            Svc_loadgen.run ~addr ~conns ~per_conn)
      in
      (* the server's domains are joined: every write is published *)
      let shape = Printf.sprintf "%d x %d: " conns per_conn in
      check_int (shape ^ "all responses received") (conns * per_conn)
        stats.Svc_loadgen.total;
      check_int (shape ^ "no failures") 0 stats.Svc_loadgen.failed;
      check_int (shape ^ "no sheds") 0 stats.Svc_loadgen.busy;
      check_int
        (shape ^ "every response byte-identical to the oracle")
        0
        (Svc_loadgen.verify_exchanges exchanges))
    [ (8, 12); (4, 32) ]

(* Concurrent clients mutating *distinct* sessions.  Each client owns a
   session (and its own constants, so evaluation really differs across
   clients) and drives load -> eval -> assert -> eval -> retract -> eval
   -> holds over its own connection, from its own domain.  Sessions
   serialize internally but not across each other, so the mutations run
   in parallel; every response must still be byte-identical to a
   single-threaded oracle replaying the same per-client script. *)
let mutation_script k =
  let s = Printf.sprintf "s%d" k in
  let e i j = Printf.sprintf "E(c%d_%d,c%d_%d)." k i k j in
  let c i = Printf.sprintf "c%d_%d" k i in
  List.mapi
    (fun n line -> Printf.sprintf "%s_%d %s" s n line)
    [
      Printf.sprintf
        "load %s program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
         T(z,y)."
        s;
      Printf.sprintf "load %s instance i : %s %s %s" s (e 0 1) (e 1 2) (e 2 3);
      Printf.sprintf "eval %s tc i" s;
      Printf.sprintf "assert %s i : %s" s (e 3 4);
      Printf.sprintf "eval %s tc i" s;
      Printf.sprintf "holds %s tc i (%s,%s)" s (c 0) (c 4);
      Printf.sprintf "retract %s i : %s" s (e 1 2);
      Printf.sprintf "eval %s tc i" s;
      Printf.sprintf "holds %s tc i (%s,%s)" s (c 0) (c 3);
      Printf.sprintf "retract %s i : E(zz,zz)." s;
      Printf.sprintf "eval %s tc i" s;
    ]

let test_tcp_concurrent_mutations () =
  let service = Svc_service.create ~parallel:false () in
  let nclients = 4 in
  let transcripts =
    with_server service (fun addr ->
        let clients =
          List.init nclients (fun k ->
              Domain.spawn (fun () ->
                  let fd, ic, oc = connect addr in
                  let rs = List.map (roundtrip ic oc) (mutation_script k) in
                  Unix.close fd;
                  rs))
        in
        List.map Domain.join clients)
  in
  let oracle = Svc_service.create ~parallel:false () in
  List.iteri
    (fun k got ->
      List.iter2
        (fun line resp ->
          check_string line
            (Svc_proto.print_response (Svc_service.handle_line oracle line))
            resp)
        (mutation_script k) got)
    transcripts;
  (* spot-check the mutations actually took effect end to end *)
  let last = List.nth (List.hd transcripts) 10 in
  check_string "client 0 final closure reflects both mutations"
    "s0_10 ok c0_0,c0_1;c0_2,c0_3;c0_2,c0_4;c0_3,c0_4" last

(* ------------------------------------------------------------------ *)
(* Cache snapshots. *)

let test_snapshot_roundtrip () =
  let path = Filename.temp_file "mondet-cache" ".snap" in
  let feed svc l = Svc_proto.print_response (Svc_service.handle_line svc l) in
  let queries =
    [ "q1 eval s tc i"; "q2 holds s tc i (a,c)"; "q3 holds s tc i (c,a)" ]
  in
  let svc1 = Svc_service.create ~parallel:false () in
  List.iter (fun l -> ignore (feed svc1 l)) load_lines;
  let cold = List.map (feed svc1) queries in
  Svc_persist.save path svc1;
  (* a warm service: same loads, snapshot reloaded — every query must
     hit and answer byte-identically *)
  let svc2 = Svc_service.create ~parallel:false () in
  (match Svc_persist.load path svc2 with
  | Ok n -> check_int "all entries reloaded" 3 n
  | Error m -> Alcotest.fail ("snapshot load failed: " ^ m));
  List.iter (fun l -> ignore (feed svc2 l)) load_lines;
  let warm = List.map (feed svc2) queries in
  List.iter2 (fun c w -> check_string "warm answers byte-identical" c w) cold
    warm;
  check_int "all warm answers were cache hits" 3
    (Svc_cache.hits (Svc_service.cache svc2));
  check_int "no warm misses" 0 (Svc_cache.misses (Svc_service.cache svc2));
  Sys.remove path

let test_snapshot_lru_order () =
  (* replaying a snapshot must reproduce recency, so the same entry is
     evicted next on both sides of a restart *)
  let c1 = Svc_cache.create 3 in
  Svc_cache.add c1 "a" "1";
  Svc_cache.add c1 "b" "2";
  Svc_cache.add c1 "c" "3";
  ignore (Svc_cache.find c1 "a");
  (* LRU order now: b, c, a *)
  let dump = Svc_cache.fold_lru c1 (fun k v acc -> (k, v) :: acc) [] in
  check_bool "fold is least-recent first" true
    (List.rev_map fst dump = [ "b"; "c"; "a" ]);
  let c2 = Svc_cache.create 3 in
  List.iter (fun (k, v) -> Svc_cache.add c2 k v) (List.rev dump);
  Svc_cache.add c2 "d" "4";
  check_bool "replay preserved recency: b evicted first" true
    (Svc_cache.mem c2 "a" && Svc_cache.mem c2 "c" && Svc_cache.mem c2 "d"
    && not (Svc_cache.mem c2 "b"))

(* Snapshots carry the key scheme in their header.  The service writes
   [mode=fingerprint] — the header earlier releases wrote, so their
   snapshots still reload — and refuses any other mode, such as the
   printed-key scheme's, without touching the cache. *)
let test_snapshot_mode_mismatch () =
  let path = Filename.temp_file "mondet-cache" ".snap" in
  let svc1 = Svc_service.create ~parallel:false () in
  List.iter
    (fun l -> ignore (Svc_service.handle_line svc1 l))
    (load_lines @ [ "q1 eval s tc i" ]);
  Svc_persist.save path svc1;
  let header = In_channel.with_open_text path input_line in
  check_bool "snapshots are written under mode=fingerprint" true
    (String.starts_with ~prefix:"mondet-cache/1 mode=fingerprint " header);
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "mondet-cache/1 mode=printed syms=0 entries=1\n\
         \"0123456789abcdef0123456789abcdef\" \"a,b;a,c;b,c\"\n");
  let svc2 = Svc_service.create ~parallel:false () in
  (match Svc_persist.load path svc2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot accepted under the wrong key mode");
  check_int "nothing leaked into the cache" 0
    (Svc_cache.entries (Svc_service.cache svc2));
  Sys.remove path

let qcheck = List.map QCheck_alcotest.to_alcotest [ qcheck_reader_roundtrip ]

let suite =
  [
    Alcotest.test_case "reader edge cases" `Quick test_reader_edges;
    Alcotest.test_case "stale unix socket reclaim" `Quick
      test_stale_socket_reclaim;
    Alcotest.test_case "tcp basic verbs" `Quick test_tcp_basic;
    Alcotest.test_case "tcp oversized line" `Quick test_tcp_oversized_line;
    Alcotest.test_case "tcp tc views" `Quick test_tcp_tc_views;
    Alcotest.test_case "unix socket line cap and cleanup" `Quick
      test_unix_socket;
    Alcotest.test_case "tcp handler exception answered" `Quick
      test_tcp_handler_exception;
    Alcotest.test_case "tcp admission shed" `Quick test_tcp_admission_shed;
    Alcotest.test_case "tcp per-session quota" `Quick test_tcp_quota_busy;
    Alcotest.test_case "tcp stress vs oracle" `Slow test_tcp_stress_oracle;
    Alcotest.test_case "tcp concurrent mutations" `Quick
      test_tcp_concurrent_mutations;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot lru order" `Quick test_snapshot_lru_order;
    Alcotest.test_case "snapshot mode mismatch" `Quick
      test_snapshot_mode_mismatch;
  ]
  @ qcheck
