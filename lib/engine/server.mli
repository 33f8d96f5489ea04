(** A long-running analysis daemon over a Unix-domain socket or TCP.

    One `tsa` invocation pays process start-up, model parsing and a
    full [O(b^2 m)] analysis for every query.  The daemon keeps the
    process — its {!Pool} of domains, its {!Cache} of results, its
    warmed allocator — alive between queries: clients connect to a
    filesystem socket or a TCP port, write one JSON request per line,
    and read one JSON response per line (see {!Protocol} for the
    request grammar).  The framing is transport-independent: a fleet
    of TCP replicas speaks byte-for-byte the same protocol as the
    single-machine Unix socket, which is what lets {!Router} shard
    requests across them.

    The server is transport only: it owns sockets, threads and
    framing, while the meaning of a request line is delegated to the
    [handler] so this module depends on neither the model nor the
    encoders ({!Tsg_io} sits {e above} the engine in the library
    stack).  [Tsg_io.Service] builds the handlers that [tsa serve]
    and [tsa proxy] pass here.

    Each connection is served by its own thread; concurrent clients do
    not block one another, and a handler that raises produces an
    error response on that connection only.  Heavy work inside the
    handler should run on the shared {!Pool} (as {!Batch} does), which
    is how concurrent requests share the machine.

    Every request is observed: a [server/request] span in
    {!Tsg_obs.Trace} (when tracing is enabled) and a
    [server/request_ms] latency histogram in {!Metrics}, from which
    the [stats] response reports p50/p95/p99. *)

type reply =
  | Reply of string
      (** answer this request (the string must be one line) and keep
          serving *)
  | Final of string
      (** answer this request, then stop accepting connections, drain
          the active ones and make {!serve} return — the [shutdown]
          request *)

type endpoint =
  | Unix_socket of string  (** a filesystem socket path *)
  | Tcp of { host : string; port : int }
      (** a TCP listening address; [port = 0] asks the kernel for a
          free port (reported via [on_ready]) *)

val endpoint_of_string : string -> (endpoint, string) result
(** [endpoint_of_string s] parses [HOST:PORT] (numeric port) as
    {!Tcp} and anything else as a {!Unix_socket} path.  [:PORT] binds
    to the loopback address.  An out-of-range port is an [Error]. *)

val endpoint_to_string : endpoint -> string
(** Round-trips {!endpoint_of_string}: [host:port] for TCP, the bare
    path for a Unix socket. *)

val serve :
  ?backlog:int ->
  ?max_connections:int ->
  ?max_request_bytes:int ->
  ?read_timeout_s:float ->
  ?write_timeout_s:float ->
  ?drain_timeout_s:float ->
  ?stop:bool Atomic.t ->
  ?on_ready:(endpoint -> unit) ->
  endpoint:endpoint ->
  handler:(string -> reply) ->
  unit ->
  unit
(** [serve ~endpoint ~handler ()] binds [endpoint] — replacing an
    existing socket file for {!Unix_socket}, with [SO_REUSEADDR] for
    {!Tcp} — accepts clients and blocks until a handler returns
    {!Final} — or until [stop] is set.  [backlog] (default 16) is the
    listen queue length.  [on_ready] (if given) is called exactly once,
    after [listen] succeeds, with the {e actual} bound endpoint: for
    [Tcp {port = 0}] this carries the kernel-chosen port, which is how
    tests and {!Router} drills obtain collision-free addresses.
    Accepted TCP connections get [TCP_NODELAY] (one-line
    request/response traffic must not wait on Nagle).

    For every request line the handler's reply is written back
    followed by a newline; replies must therefore be single-line (the
    JSON encoders never emit newlines).  If the handler raises, the
    exception is rendered into a
    [{"status":"error","code":"internal",...}] line instead of killing
    the connection.

    {b Resilience.}  The daemon assumes clients are unreliable or
    hostile:

    - [max_connections] (default 64): a client past the limit receives
      one [{"code":"overloaded"}] line and is closed — it should back
      off and retry ({!call} can).  Counted in [server/rejected].
    - [max_request_bytes] (default 1 MiB): a longer request line gets
      a [{"code":"too_large"}] reply and the connection is closed
      (also [server/rejected]).
    - [read_timeout_s] / [write_timeout_s] (default 30 s each, [0.]
      disables): a client that stalls mid-line, idles, or never drains
      its responses (slow loris, either direction) is answered with
      [{"code":"timeout"}] where possible and dropped.  Counted in
      [server/timeouts].
    - The accept loop survives fd exhaustion: [EMFILE]/[ENFILE] back
      the loop off exponentially (50 ms doubling to 1 s, counted in
      [server/accept_backoff]) instead of killing the daemon under
      peak load.
    - [stop] (optional): an externally owned flag — typically set by a
      SIGTERM/SIGINT handler — that ends the accept loop within one
      poll interval (100 ms).  Shutdown is a {e graceful drain}:
      requests already executing get [drain_timeout_s] (default 5 s)
      to finish and flush before remaining sockets are shut down.

    The counters [server/connections] and [server/requests] and the
    latency histogram [server/request_ms] in {!Metrics} track traffic.

    On return a Unix socket file has been removed.
    @raise Unix.Unix_error if the socket cannot be created or bound. *)

val call :
  ?retries:int ->
  ?backoff_ms:float ->
  ?timeout_s:float ->
  endpoint:endpoint ->
  string list ->
  string list
(** [call ~endpoint requests] connects to a serving daemon, sends each
    request line in turn — writing one line, then reading its response
    line — and returns the responses in order.  Raises [Failure] if
    the server closes the connection before answering everything; a
    reply written before the close (e.g. an [overloaded] refusal) is
    returned even when the request itself could not be written.
    This is the client used by [tsa client] and the tests.

    [retries] (default 0) re-attempts a {e failed connection}
    ([ECONNREFUSED], [ENOENT], [ECONNRESET], [EAGAIN] — a daemon still
    starting, or briefly out of descriptors) with full-jitter
    exponential backoff starting at [backoff_ms] (default 50, capped
    at 2 s).  Requests are never retried once a connection is
    established: the caller cannot know how far a half-answered
    conversation got.

    [timeout_s] (off by default) bounds each socket read and write
    ([SO_RCVTIMEO]/[SO_SNDTIMEO]): a server that accepts but never
    reads or never answers raises [Failure] after [timeout_s] seconds instead of
    blocking forever.  The proxy tier sets this on upstream calls so a
    wedged shard trips its circuit breaker rather than absorbing a
    client thread.
    @raise Unix.Unix_error if the connection (still) fails. *)
