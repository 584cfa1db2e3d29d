(* Concurrent load for the TCP front-end, checked against a sequential
   oracle: N closed-loop connections driven from one single-threaded
   select loop, a deterministic mixed workload over two sessions, and an
   in-process oracle that re-answers every request sequentially, so a
   test can prove the concurrent server returned byte-identical
   responses.

   Closed loop means one outstanding request per connection: a
   connection sends, waits for the full response line, sends the next.
   The load loop is single-threaded on purpose: domains are the
   server's resource, and client domains would perturb the scheduler
   under test. *)

(* ------------------------------------------------------------------ *)
(* Deterministic workload: a grid session (transitive closure over a
   31-edge chain) and a diamond session (the Figure-3 query/view pair),
   mixed so the stream exercises cheap cached hits, distinct-key eval
   and holds misses, and the heavy decision verbs. *)

let setup_lines =
  [
    "s1 load grid program tc goal T : T(x,y) <- E(x,y). T(x,y) <- E(x,z), \
     T(z,y).";
    "s2 load grid instance chain : "
    ^ String.concat " "
        (List.init 31 (fun i -> Printf.sprintf "E(n%d,n%d)." i (i + 1)));
    "s3 load diamond program tc goal T : T(x,y) <- E(x,y). T(x,y) <- \
     E(x,z), T(z,y).";
    "s4 load diamond program reach goal Goal : Goal() <- T(x,y). T(x,y) <- \
     E(x,y). T(x,y) <- E(x,z), T(z,y).";
    "s5 load diamond views v : V(x,y) <- E(x,y).";
    "s6 load diamond instance i : E(a,b). E(b,c).";
    "s7 load diamond instance vi : V(a,b). V(b,c).";
  ]

(* Request [seq] of connection [conn].  Ids are globally unique, so a
   cross-wired response (wrong connection, wrong slot) is detected as
   corruption.  The holds tuples vary with both indices: distinct cache
   keys keep arriving throughout the run, so the stream never collapses
   to pure cache hits. *)
let request_line ~conn ~seq =
  let id = Printf.sprintf "c%dn%d" conn seq in
  match seq mod 8 with
  | 0 -> id ^ " eval grid tc chain"
  | 1 ->
      Printf.sprintf "%s holds grid tc chain (n0,n%d)" id
        (1 + ((conn * 7) + seq) mod 31)
  | 2 ->
      Printf.sprintf "%s holds grid tc chain (n%d,n0)" id
        (1 + ((conn + (seq * 5)) mod 31))
  | 3 -> id ^ " eval diamond tc i"
  | 4 -> id ^ " mondet-test diamond reach v"
  | 5 -> id ^ " certain-answers diamond reach v vi"
  | 6 -> id ^ " holds diamond tc i (a,c)"
  | _ -> id ^ " eval diamond reach i"

(* ------------------------------------------------------------------ *)

type stats = {
  total : int;  (** responses received *)
  busy : int;
  failed : int;  (** error/timeout responses, or connections cut short *)
}

type cstate = {
  fd : Unix.file_descr;
  cix : int;
  reader : Svc_reader.t;
  mutable seq : int;  (** next request to send *)
  mutable outstanding : string option;  (** the request line in flight *)
  mutable closed : bool;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)

(* Oracle replay: a fresh sequential service answers every exchanged
   request and the count of byte differences is returned; any difference
   is a correctness failure of the concurrent path, not noise.  Join an
   in-process server's domains first so every published write is
   visible. *)
let verify_exchanges exchanges =
  let oracle = Svc_service.create ~parallel:false () in
  List.iter (fun l -> ignore (Svc_service.handle_line oracle l)) setup_lines;
  List.fold_left
    (fun bad (req, resp) ->
      let expected =
        Svc_proto.print_response (Svc_service.handle_line oracle req)
      in
      if String.equal expected resp then bad else bad + 1)
    0 exchanges

(* Run the workload, [per_conn] requests on each of [conns] connections,
   and return the stats and every (request, response) exchange in
   completion order.  The server must allow [conns + 1] connections (one
   for setup) and have no session quota, or [busy] sheds show up. *)
let run ~addr ~conns ~per_conn =
  (* session setup over a throwaway lockstep connection, which also
     turns SIGPIPE off for the process *)
  let devnull = open_out "/dev/null" in
  let setup_bad = Svc_server.client ~addr setup_lines devnull in
  close_out_noerr devnull;
  if setup_bad > 0 then failwith "loadgen: session setup failed";
  let states =
    Array.init conns (fun cix ->
        let fd =
          Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
        in
        Unix.connect fd addr;
        {
          fd;
          cix;
          reader = Svc_reader.create ~max_line:(1 lsl 20);
          seq = 0;
          outstanding = None;
          closed = false;
        })
  in
  let total = ref 0 and busy = ref 0 and failed = ref 0 in
  let exchanges = ref [] in
  let live = ref conns in
  let finish c =
    if not c.closed then begin
      c.closed <- true;
      close_quietly c.fd;
      decr live;
      (* an open request or an unsent tail means the server cut us off *)
      match c.outstanding with
      | Some _ ->
          incr failed;
          c.outstanding <- None
      | None -> if c.seq < per_conn then incr failed
    end
  in
  let send c =
    if c.seq >= per_conn then finish c
    else begin
      let line = request_line ~conn:c.cix ~seq:c.seq in
      c.seq <- c.seq + 1;
      c.outstanding <- Some line;
      try write_all c.fd (line ^ "\n") 0 (String.length line + 1)
      with Unix.Unix_error _ -> finish c
    end
  in
  let on_response c resp =
    incr total;
    match c.outstanding with
    | None -> (* a response nobody asked for: corruption *) incr failed
    | Some req ->
        c.outstanding <- None;
        exchanges := (req, resp) :: !exchanges;
        let req_rid =
          match String.index_opt req ' ' with
          | Some i -> String.sub req 0 i
          | None -> req
        in
        (match Svc_proto.parse_response resp with
        | Ok { Svc_proto.result = Svc_proto.Ok_ _; rid } when rid = req_rid ->
            ()
        | Ok { Svc_proto.result = Svc_proto.Busy; _ } -> incr busy
        (* an ok body under the wrong id is cross-wired *)
        | Ok _ | Error _ -> incr failed);
        send c
  in
  let scratch = Bytes.create 65536 in
  Array.iter send states;
  while !live > 0 do
    let fds =
      Array.to_list states
      |> List.filter_map (fun c -> if c.closed then None else Some c.fd)
    in
    let ready, _, _ =
      try Unix.select fds [] [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        match Array.find_opt (fun c -> (not c.closed) && c.fd == fd) states with
        | None -> ()
        | Some c -> (
            let n =
              try Unix.read c.fd scratch 0 (Bytes.length scratch)
              with Unix.Unix_error _ -> 0
            in
            if n = 0 then finish c
            else
              Svc_reader.feed c.reader scratch ~off:0 ~len:n
              |> List.iter (function
                   | Svc_reader.Line l -> on_response c l
                   | Svc_reader.Overlong ->
                       incr total;
                       incr failed)))
      ready
  done;
  ({ total = !total; busy = !busy; failed = !failed }, List.rev !exchanges)
