(* Concurrent socket front-end, TCP and Unix-domain alike: an accept
   loop handing connections to a fixed pool of worker domains, each
   multiplexing its share of the connections with its own select loop.

   Shape and why:

   - a {e fixed} pool of worker domains, not a domain per
     connection: domains are heavyweight (every one participates in
     every minor collection), so the domain count must track cores, not
     clients — 32 concurrent connections on 4 workers is the intended
     regime, with each worker multiplexing 8;
   - connections are assigned round-robin at accept time and never
     migrate, so a connection's reads, parses and writes all happen on
     one domain — the per-connection reader state needs no lock;
   - each worker owns a self-pipe; the accept loop hands a connection
     over by pushing the fd onto the worker's mutex-guarded inbox and
     writing one byte to the pipe, which wakes the worker's select;
   - requests go through {!Svc_service.handle_line}, which carries the
     whole cross-domain safety discipline (per-session serialization,
     the cache's own lock);
   - admission control sheds, never queues: when [max_conns]
     connections are active the accept loop answers the newcomer with
     one [- busy] line and closes it.  The client knows immediately and
     can retry; an unbounded backlog would instead convert overload
     into unbounded latency and memory.

   A request that takes long stalls the other connections multiplexed
   on the same worker — that is the cost of the fixed pool, bounded by
   per-request deadlines and the per-session quota, and it never blocks
   accept or the other workers. *)

type config = {
  workers : int;  (** connection worker domains, clamped to [1, 64] *)
  max_conns : int;  (** active-connection cap; excess sheds with [busy] *)
  max_line : int;  (** per-request line byte cap *)
}

let default_config = { workers = 4; max_conns = 64; max_line = 1 lsl 20 }

(* Join every worker domain, then re-raise the first exception any of
   them died with. *)
let join_workers workers =
  let err = ref None in
  Array.iter
    (fun d -> try Domain.join d with e -> if !err = None then err := Some e)
    workers;
  Option.iter raise !err

type conn = { fd : Unix.file_descr; reader : Svc_reader.t }

type worker_slot = {
  inbox_mu : Mutex.t;
  mutable inbox : Unix.file_descr list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)

let response_line r = Svc_proto.print_response r ^ "\n"

let busy_line = response_line { Svc_proto.rid = "-"; result = Svc_proto.Busy }

(* Wake [slot]'s worker; the pipe only carries wakeups, so a full pipe
   (worker far behind) already guarantees a pending one. *)
let poke slot =
  try ignore (Unix.single_write_substring slot.wake_w "!" 0 1)
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Worker: multiplex the connections assigned to this slot until the
   server closes.  All I/O errors on a connection just drop it. *)

(* The response line to one request line.  An exception [handle] lets
   escape answers [- error internal: EXN], so the worker keeps serving. *)
let answer_line handle l =
  match handle l with
  | r -> response_line r
  | exception e ->
      response_line
        {
          Svc_proto.rid = "-";
          result = Svc_proto.Error_ ("internal: " ^ Printexc.to_string e);
        }

let worker_loop ~closing ~active ~max_line handle slot =
  let scratch = Bytes.create 65536 in
  let conns = ref [] in
  let drop c =
    close_quietly c.fd;
    Atomic.decr active;
    conns := List.filter (fun c' -> c'.fd != c.fd) !conns
  in
  let adopt () =
    Mutex.lock slot.inbox_mu;
    let fds = List.rev slot.inbox in
    slot.inbox <- [];
    Mutex.unlock slot.inbox_mu;
    List.iter
      (fun fd ->
        conns := { fd; reader = Svc_reader.create ~max_line } :: !conns)
      fds
  in
  let answer c item =
    let line =
      match item with
      | Svc_reader.Overlong ->
          Some
            (response_line
               {
                 Svc_proto.rid = "-";
                 result =
                   Svc_proto.Error_
                     (Printf.sprintf "line exceeds %d bytes" max_line);
               })
      | Svc_reader.Line l when String.trim l = "" -> None
      | Svc_reader.Line l -> Some (answer_line handle l)
    in
    match line with
    | None -> true
    | Some out -> (
        try
          write_all c.fd out 0 (String.length out);
          true
        with Unix.Unix_error _ -> false)
  in
  let serve_conn c =
    let n =
      try Unix.read c.fd scratch 0 (Bytes.length scratch)
      with Unix.Unix_error _ -> 0
    in
    if n = 0 then drop c
    else
      let items = Svc_reader.feed c.reader scratch ~off:0 ~len:n in
      if not (List.for_all (answer c) items) then drop c
  in
  while not (Atomic.get closing) do
    let fds = slot.wake_r :: List.map (fun c -> c.fd) !conns in
    let ready, _, _ =
      try Unix.select fds [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd == slot.wake_r then begin
          (try ignore (Unix.read slot.wake_r scratch 0 64)
           with Unix.Unix_error _ -> ());
          adopt ()
        end
        else
          match List.find_opt (fun c -> c.fd == fd) !conns with
          | Some c -> serve_conn c
          | None -> ())
      ready;
    (* a handoff can race the select tick; adopt unconditionally so an
       inboxed connection never waits more than one tick *)
    adopt ()
  done;
  adopt ();
  List.iter (fun c -> drop c) !conns

(* ------------------------------------------------------------------ *)

(* a stream socket bound to [addr], closed again if binding fails *)
let bound_socket addr =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock addr;
    sock
  with e ->
    close_quietly sock;
    raise e

(* Bind a Unix-domain listener at [path].  A leftover socket file from a
   crashed server makes bind fail with EADDRINUSE even though nobody is
   listening; blindly unlinking would instead steal the address out from
   under a *live* server (its clients would silently land on us).  So on
   EADDRINUSE, probe with a connect: refused (or otherwise dead) means
   stale — remove and rebind; accepted means a live server — fail. *)
let bind_unix ~path =
  let addr = Unix.ADDR_UNIX path in
  try bound_socket addr
  with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe addr;
        true
      with Unix.Unix_error _ -> false
    in
    close_quietly probe;
    if live then
      failwith (Printf.sprintf "%s: a server is already listening" path)
    else begin
      (try Sys.remove path with Sys_error _ -> ());
      bound_socket addr
    end

let bind_listener = function
  | Unix.ADDR_UNIX path -> bind_unix ~path
  | addr -> bound_socket addr

let serve ?(stop = fun () -> false) ?on_listen ?handle config service addr =
  let handle = Option.value handle ~default:(Svc_service.handle_line service) in
  Svc_server.ignore_sigpipe ();
  let sock = bind_listener addr in
  Unix.listen sock 64;
  (match on_listen with
  | Some f -> f (Unix.getsockname sock)
  | None -> ());
  let closing = Atomic.make false in
  let active = Atomic.make 0 in
  (* the slots exist — fully initialized, published by Domain.spawn —
     before any worker runs *)
  let nworkers = max 1 (min config.workers 64) in
  let slots =
    Array.init nworkers (fun _ ->
        let r, w = Unix.pipe () in
        { inbox_mu = Mutex.create (); inbox = []; wake_r = r; wake_w = w })
  in
  let workers =
    Array.map
      (fun slot ->
        Domain.spawn (fun () ->
            worker_loop ~closing ~active ~max_line:config.max_line handle slot))
      slots
  in
  let next = ref 0 in
  while not (stop ()) do
    let ready, _, _ =
      try Unix.select [ sock ] [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if ready <> [] then
      match Unix.accept sock with
      | exception Unix.Unix_error _ -> ()
      | cfd, _ ->
          if Atomic.get active >= config.max_conns then begin
            (* shed at the door: one busy line, then close — never an
               unbounded queue *)
            (try write_all cfd busy_line 0 (String.length busy_line)
             with Unix.Unix_error _ -> ());
            close_quietly cfd
          end
          else begin
            Atomic.incr active;
            let slot = slots.(!next mod nworkers) in
            incr next;
            Mutex.lock slot.inbox_mu;
            slot.inbox <- cfd :: slot.inbox;
            Mutex.unlock slot.inbox_mu;
            poke slot
          end
  done;
  Atomic.set closing true;
  Array.iter poke slots;
  join_workers workers;
  Array.iter
    (fun s ->
      close_quietly s.wake_r;
      close_quietly s.wake_w)
    slots;
  close_quietly sock;
  match addr with
  | Unix.ADDR_UNIX path -> ( try Sys.remove path with Sys_error _ -> ())
  | Unix.ADDR_INET _ -> ()
