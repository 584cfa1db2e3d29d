(** Concurrent socket front-end over {!Svc_service}, for TCP and
    Unix-domain listeners alike.

    An accept loop on the calling thread hands connections round-robin
    to a fixed pool of worker domains; each worker multiplexes its
    share of the connections with its own select loop, framing requests
    through the length-capped {!Svc_reader} and answering them with
    {!Svc_service.handle_concurrent} (which enforces the cross-domain
    safety discipline: per-session serialization, the heavy-verb mutex,
    the locked cache).

    {2 Admission contract}

    Load is shed, never queued:

    - a connection arriving while [max_conns] are active is answered
      with a single [- busy] line and closed;
    - a request arriving while its session is over quota (see
      {!Svc_service.create}) is answered [ID busy];
    - a request line longer than [max_line] bytes is dropped as it
      streams in (memory stays bounded) and answered with an error.

    [busy] is retryable by contract: nothing was evaluated, nothing was
    cached. *)

val bind_unix : path:string -> Unix.file_descr
(** Create and bind a Unix-domain stream listener at [path].  If the
    address is taken, probe it with a connect: a stale socket file left
    by a crashed server (nobody accepts the connect) is removed and the
    bind retried; a live listener makes this raise [Failure] rather
    than steal the address.
    @raise Failure if another server is listening at [path].
    @raise Unix.Unix_error on other bind failures. *)

type config = {
  workers : int;  (** connection worker domains, clamped to [1, 64] *)
  max_conns : int;  (** active-connection cap; excess sheds with [busy] *)
  max_line : int;  (** per-request line byte cap *)
}

val default_config : config
(** 4 workers, 64 connections, 1 MiB lines. *)

val serve :
  ?stop:(unit -> bool) ->
  ?on_listen:(Unix.sockaddr -> unit) ->
  ?handle:(string -> Svc_proto.response) ->
  config ->
  Svc_service.t ->
  Unix.sockaddr ->
  unit
(** [serve config service addr] binds [addr] — a TCP address with
    [SO_REUSEADDR], a Unix-domain path through {!bind_unix} — spawns
    the workers, and runs the accept loop on the calling thread.
    [on_listen] fires once with the actual bound address — how callers
    binding port [0] learn the ephemeral port.  [stop] is polled a few
    times a second; a [true] stops accepting, closes every connection,
    joins the workers, removes a Unix-domain socket file and returns.
    Without [stop], never returns.

    [handle] answers one request line; it defaults to
    {!Svc_service.handle_line_concurrent} on [service].  An exception it
    raises is answered [- error internal: EXN] and the worker goes on
    serving that connection and every other one.

    The [service] must be dedicated to this server and not driven
    through the single-coordinator entry points concurrently (see
    {!Svc_service}). *)
