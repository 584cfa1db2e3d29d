(* Server front-ends: the stdio loop and the lockstep client used by
   the CLI and the CI smoke tests.  Socket serving, Unix-domain and TCP
   alike, lives in Svc_tcp. *)

(* A peer that disconnects mid-write must surface as EPIPE on the write
   call — where the per-client drop logic handles it — not as a fatal
   SIGPIPE to the whole process.  Every entry point that writes to a
   socket or a pipe calls this first; harmless to repeat, and a no-op on
   systems without the signal. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let serve_stdio service =
  ignore_sigpipe ();
  try
    while true do
      let line = input_line stdin in
      if String.trim line <> "" then (
        let resp = Svc_service.handle_line service line in
        output_string stdout (Svc_proto.print_response resp);
        output_char stdout '\n';
        flush stdout)
    done
  with End_of_file -> ()

(* ------------------------------------------------------------------ *)

(* Lockstep client: send one line, await one response line, repeat.
   Echoes responses to [oc]; returns the number of [error]/[timeout]/
   [busy] responses so scripted callers can exit nonzero. *)
let client ~addr lines oc =
  ignore_sigpipe ();
  let sock =
    Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Unix.connect sock addr;
  let sic = Unix.in_channel_of_descr sock in
  let soc = Unix.out_channel_of_descr sock in
  let bad = ref 0 in
  (try
     List.iter
       (fun line ->
         if String.trim line <> "" then (
           output_string soc line;
           output_char soc '\n';
           flush soc;
           let resp = input_line sic in
           (match Svc_proto.parse_response resp with
           | Ok { result = Svc_proto.Ok_ _; _ } -> ()
           | Ok _ | Error _ -> incr bad);
           output_string oc resp;
           output_char oc '\n';
           flush oc))
       lines
   with
  | End_of_file ->
      prerr_endline "client: server closed the connection";
      incr bad
  | Sys_error m ->
      prerr_endline ("client: " ^ m);
      incr bad);
  (try Unix.close sock with Unix.Unix_error _ -> ());
  !bad
