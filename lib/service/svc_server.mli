(** Server front-ends over {!Svc_service}: the stdio loop and the
    lockstep client.

    The stdio loop answers one request line at a time through
    {!Svc_service.handle_line}, the request path every caller takes.
    Socket serving — Unix-domain and TCP alike, worker domains
    multiplexing many connections — lives in {!Svc_tcp}. *)

val ignore_sigpipe : unit -> unit
(** Turn SIGPIPE off for the process so a peer disconnecting mid-write
    surfaces as an [EPIPE] error on the write — handled per client —
    instead of killing the server.  Called by every socket entry point
    here and in {!Svc_tcp}; idempotent. *)

val serve_stdio : Svc_service.t -> unit
(** Read request lines from stdin, write one response line per request
    to stdout (flushed per line), until EOF. *)

val client : addr:Unix.sockaddr -> string list -> out_channel -> int
(** Lockstep client: connect to [addr] (Unix-domain or TCP), send each
    nonempty line and await its response, echoing responses to the
    channel.  Returns the number of non-[ok] responses (so scripted
    callers can exit nonzero). *)
