(** Local replica fleets: [N] [tsa serve --tcp] daemons, and optionally
    a [tsa proxy] fronting them, run as child processes of a given
    executable.  [tsa fleet] supervises one; the bench's serving drills
    start and stop one per pass.  For testing, CI drills and load
    generation: production replicas are expected to run under a real
    supervisor. *)

val free_port : unit -> int
(** A loopback port that is free right now.  There is a window between
    closing the probe socket and a replica binding the port; replicas
    bind with [SO_REUSEADDR] at once and {!start} waits for every
    child to answer, which is good enough for local drills, not a
    general-purpose allocator. *)

type t

val start :
  ?quiet:bool ->
  ?cache_dir:string ->
  ?cache_size:int ->
  ?host:string ->
  ?base_port:int ->
  ?proxy:bool ->
  exe:string ->
  replicas:int ->
  unit ->
  (t, string) result
(** [start ~exe ~replicas ()] spawns [replicas] [exe serve --tcp
    HOST:PORT --cache-size N] children (replica [i] on [base_port + i],
    or on {!free_port}s when [base_port] is 0, the default), waits
    until each answers a [stats] request, then, with [proxy], spawns
    [exe proxy] on a free port over them and waits for it too.
    [cache_dir] is passed to every child; [quiet] sends their stderr
    to [/dev/null].  Defaults: host [127.0.0.1], cache size 1024.

    All or nothing: a child that exits before it answers, a probe that
    finds no answer within 10 s (each probe times out after 1 s, so a
    foreign listener on the port cannot stall it) or a spawn that
    raises makes [start] SIGTERM and reap every child it started, then
    return [Error "fleet failed to come up"] (followed by the
    exception when one was raised), or [Error "proxy failed to come up"]
    for the proxy. *)

val replicas : t -> (int * string) list
(** Each replica's current pid and endpoint ([HOST:PORT]), in replica
    order. *)

val proxy : t -> string option
(** The proxy's endpoint, when the fleet has one. *)

val restart_backoff : crashes:int -> uptime_s:float -> int * float
(** [restart_backoff ~crashes ~uptime_s] is, for a replica that had
    crashed [crashes] times in a row and just exited abnormally after
    [uptime_s] seconds, its new consecutive-crash count and the delay
    before its restart: 0.5 s doubling per crash, capped at 10 s.  An
    uptime above 30 s proves the port and configuration good and
    resets the count first. *)

type event =
  | Exited of { replica : int; endpoint : string; status : Unix.process_status }
  | Restarted of { replica : int; pid : int }

val supervise :
  restart:bool -> stop:bool Atomic.t -> on_event:(event -> unit) -> t -> unit
(** Reap replicas every 100 ms until none is left, reporting each exit
    and restart to [on_event].  With [restart], a replica that exits
    abnormally (a crash or a kill signal) is respawned on its port
    after {!restart_backoff}; a clean exit (a broadcast shutdown, a
    drain) is final.  Once [stop] is set, every replica and the proxy
    get SIGTERM and pending restarts are cancelled. *)

val stop : t -> unit
(** SIGTERM every child still running, then reap it. *)
