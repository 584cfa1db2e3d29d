(* The server child process and the closed-loop TCP client. *)

(* ------------------------------------------------------------------ *)
(* Server process: [mondet serve --tcp 127.0.0.1:0 --workers 1] with the
   default engine and cache.  One worker: a closed loop over one
   connection keeps one busy at a time, and an idle second worker
   domain would only add its wake-ups to every stop-the-world minor
   collection.  The ephemeral port is read from the server's "serving
   on" line on stderr. *)

type server = { pid : int; port : int; err : Unix.file_descr }

let live : int list ref = ref []

let fail fmt = Printf.ksprintf failwith fmt

(* Read one line from [fd] within [timeout] seconds. *)
let read_line_within fd timeout =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then fail "server: no output within %.0fs" timeout;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> fail "server: exited before listening (%s)" (Buffer.contents buf)
        | _ ->
            if Bytes.get byte 0 = '\n' then Buffer.contents buf
            else begin
              Buffer.add_char buf (Bytes.get byte 0);
              go ()
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start ~mondet =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process mondet
      [| mondet; "serve"; "--tcp"; "127.0.0.1:0"; "--workers"; "1" |]
      devnull devnull w
  in
  Unix.close w;
  Unix.close devnull;
  live := pid :: !live;
  (* "mondet: serving on 127.0.0.1:PORT" *)
  let rec await () =
    let line = read_line_within r 60.0 in
    match String.split_on_char ' ' line |> List.rev with
    | addr :: "on" :: "serving" :: _ -> (
        match String.rindex_opt addr ':' with
        | Some i -> (
            match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
            | Some port -> port
            | None -> await ())
        | None -> await ())
    | _ -> await ()
  in
  let port = await () in
  { pid; port; err = r }

(* VmHWM of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) go

let rec waitpid_within pid timeout =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when timeout > 0.0 ->
      Unix.sleepf 0.02;
      waitpid_within pid (timeout -. 0.02)
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_within pid timeout

(* SIGTERM (the server shuts down gracefully), SIGKILL if it lingers;
   always reaped. *)
let kill_and_reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (waitpid_within pid 10.0) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_within pid 10.0)
  end;
  live := List.filter (( <> ) pid) !live

let stop s =
  kill_and_reap s.pid;
  try Unix.close s.err with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter kill_and_reap !live)

(* ------------------------------------------------------------------ *)
(* Connections. *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off len =
  if len > 0 then
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)

type conn = {
  fd : Unix.file_descr;
  reader : Svc_reader.t;
  mutable ready : string list;  (** framed lines not yet consumed *)
}

let conn_of fd = { fd; reader = Svc_reader.create ~max_line:(1 lsl 24); ready = [] }
let scratch = Bytes.create 65536

(* Read whatever is available into [c.ready]; false on EOF. *)
let pump c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> false
  | n ->
      let lines =
        List.map
          (function Svc_reader.Line l -> l | Svc_reader.Overlong -> "- overlong")
          (Svc_reader.feed c.reader scratch ~off:0 ~len:n)
      in
      c.ready <- c.ready @ lines;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Lockstep: send one line, await its response. *)
let request c line =
  write_all c.fd (line ^ "\n") 0 (String.length line + 1);
  let rec await () =
    match c.ready with
    | l :: rest ->
        c.ready <- rest;
        l
    | [] -> if pump c then await () else fail "server closed the connection"
  in
  await ()

(* ------------------------------------------------------------------ *)
(* The closed loop: one single-threaded select loop over [streams]
   connections, one outstanding request each; a connection sends its
   next request as soon as the previous response arrives, until
   [seconds] have passed. *)

type run = {
  exchanges : (string * string) array;  (** (request, response), completion order *)
  latency_ns : float array;  (** per exchange *)
  done_ns : float array;  (** per exchange: when its response arrived *)
  start_ns : float;
  cut : int;  (** requests sent but never answered *)
  unsolicited : int;  (** responses to no outstanding request *)
  elapsed_s : float;
}

let closed_loop ~port ~streams ~seconds =
  let n = Array.length streams in
  let cs = Array.init n (fun _ -> conn_of (connect port)) in
  let outstanding = Array.make n None and sent_at = Array.make n 0 in
  let closed = Array.make n false in
  let exchanges = ref [] and lat = ref [] and fin = ref [] and unsolicited = ref 0 in
  let t0 = Clock.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let send i =
    if Clock.now_ns () >= deadline then closed.(i) <- true
    else begin
      let line = streams.(i) () in
      outstanding.(i) <- Some line;
      sent_at.(i) <- Clock.now_ns ();
      try write_all cs.(i).fd (line ^ "\n") 0 (String.length line + 1)
      with Unix.Unix_error _ -> closed.(i) <- true
    end
  in
  let deliver i =
    let rec go () =
      match (cs.(i).ready, outstanding.(i)) with
      | l :: rest, Some req ->
          let now = Clock.now_ns () in
          cs.(i).ready <- rest;
          outstanding.(i) <- None;
          exchanges := (req, l) :: !exchanges;
          lat := float_of_int (now - sent_at.(i)) :: !lat;
          fin := float_of_int now :: !fin;
          send i;
          go ()
      | _ :: rest, None ->
          incr unsolicited;
          cs.(i).ready <- rest;
          go ()
      | [], _ -> ()
    in
    go ()
  in
  Array.iteri (fun i _ -> send i) cs;
  let stalled_since = ref (Clock.now_ns ()) in
  let waiting () =
    List.filter_map
      (fun i -> if outstanding.(i) <> None && not closed.(i) then Some cs.(i).fd else None)
      (List.init n Fun.id)
  in
  let rec loop () =
    match waiting () with
    | [] -> ()
    | fds ->
        let ready, _, _ =
          try Unix.select fds [] [] 1.0
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if ready = [] then begin
          (* a stuck server: give up on it after a minute of silence *)
          if Clock.seconds_since !stalled_since < 60.0 then loop ()
        end
        else begin
          stalled_since := Clock.now_ns ();
          List.iter
            (fun fd ->
              let i = ref 0 in
              while cs.(!i).fd != fd do incr i done;
              if pump cs.(!i) then deliver !i else closed.(!i) <- true)
            ready;
          loop ()
        end
  in
  loop ();
  let elapsed_s = Clock.seconds_since t0 in
  let cut = Array.fold_left (fun acc o -> if o <> None then acc + 1 else acc) 0 outstanding in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  {
    exchanges = Array.of_list (List.rev !exchanges);
    latency_ns = Array.of_list (List.rev !lat);
    done_ns = Array.of_list (List.rev !fin);
    start_ns = float_of_int t0;
    cut;
    unsolicited = !unsolicited;
    elapsed_s;
  }
