(** Serving policy: what [tsa serve], [tsa proxy] and
    [tsa client --endpoints] decide about a request.

    {!Tsg_engine.Server} frames request lines and {!Tsg_engine.Proxy}
    routes them, but neither can read a model: the engine sits below
    the loader.  This module sits above both and owns every decision
    that needs the model:

    - loading a request's model (a [.g] file or a built-in);
    - the cache key ({!cache_key}) under which the replica's memory,
      disk and what-if caches hold an answer, and which the proxy's
      degraded path reads back;
    - the routing key ({!routing_key}) every client and proxy hashes
      on, so all of them pick the same home shard;
    - the replica handler ({!replica_handler}) and the proxy handler
      ({!proxy_handler}) that the daemons pass to
      {!Tsg_engine.Server.serve}.

    Responses are rendered by {!Rpc}.  The CLI keeps only argument
    checks, the serving loop and output printing. *)

val builtin : string -> Tsg.Signal_graph.t option
(** The built-in models by name: [fig1], [ring5], [stack] and the
    generated bench workloads [gen-dense], [gen-10k], [gen-100k]. *)

val load_model : string -> (string * Tsg.Signal_graph.t, string) result
(** [load_model path] is a built-in's name and graph, or the model
    read from the file [path] ({!Loader.load_file}: [.model] name and
    graph).
    @raise Tsg_engine.Deadline.Deadline_exceeded as {!Loader.of_string}. *)

val resolve_jobs : int -> int
(** A [--jobs] or request [jobs] value: [0] or less means one domain
    per recommended core ({!Tsg_engine.Pool.recommended}). *)

type analysis = (string * Tsg.Signal_graph.t * Tsg.Cycle_time.report, string) result
(** A model's name, graph and report, or why it has none. *)

val analyze_model : cache:analysis Tsg_engine.Cache.t -> ?periods:int -> string -> analysis
(** Load and analyze one model, memoised in [cache] under
    {!cache_key}: a load error is [Error] (not cached), a
    {!Tsg.Cycle_time.Not_analyzable} model is a cached [Error].  The
    job of [tsa batch] and of a replica's batch requests. *)

val cache_key : ?periods:int -> string -> Tsg.Signal_graph.t -> string
(** [cache_key ?periods name g] is [DIGEST|NAME|PERIODS]: the graph's
    {!Tsg.Signal_graph.digest} (declaration-order independent), the
    model name and the requested horizon ([b] when omitted).  Two
    files with the same content share an entry; an edited file misses. *)

val routing_key : Tsg_engine.Protocol.request -> string option
(** The key a request is routed on:
    - analyze, sweep and a single-path batch: the model's digest, or
      the path itself when the model does not load (the shard then
      reports the load error);
    - a batch of several paths: the paths joined with [","];
    - stats and shutdown: [None], meaning broadcast. *)

val sweep :
  ?budget_ms:float ->
  jobs:int ->
  Tsg.Whatif.t ->
  Tsg_engine.Protocol.sweep_edit list array ->
  Rpc.sweep_item array
(** Run wire scenarios against a prepared base with
    {!Tsg.Whatif.sweep_changes}.  Event names are resolved against the
    base graph first; a scenario whose names do not resolve is an
    error item ([bad event ...] or [event ... is not in the graph])
    and is not run. *)

type prepared = (string * Tsg.Whatif.t, string) result
(** A prepared what-if base with its model name, or why there is none. *)

val replica_handler :
  cache:analysis Tsg_engine.Cache.t ->
  disk_cache:Tsg_engine.Disk_cache.t option ->
  whatif_cache:prepared Tsg_engine.Cache.t ->
  max_sweep:int ->
  jobs:int ->
  shard:string option ->
  endpoint:(unit -> Tsg_engine.Server.endpoint) ->
  string ->
  Tsg_engine.Server.reply
(** The request handler of [tsa serve].
    - [analyze] reads the memory cache, then the disk tier (a disk hit
      is served as stored bytes), then analyzes and adds the answer to
      both tiers.  Load and analysis errors stay in memory only.  The
      request's [timeout_ms] bounds load and analysis; a timed-out
      analysis is a [deadline_exceeded] error and is never cached.
    - [batch] runs {!analyze_model} over the memory cache on the pool.
    - [sweep] refuses more than [max_sweep] scenarios ([too_large]),
      prepares the base once per {!cache_key} in [whatif_cache] under
      the request's budget, then runs {!sweep} with the budget per
      scenario.
    - [stats] reports both cache tiers, the transport of [endpoint ()]
      and the shard label: [shard], or [endpoint ()] as a string.
    - [shutdown] answers, then stops the server.

    [jobs] is the default for requests that carry none. *)

val proxy_handler :
  proxy:Tsg_engine.Proxy.t ->
  stale:Tsg_engine.Disk_cache.t option ->
  endpoint:(unit -> Tsg_engine.Server.endpoint) ->
  string ->
  Tsg_engine.Server.reply
(** The request handler of [tsa proxy]: [stale] is [proxy]'s degraded
    cache.
    - analyze, sweep and batch go through {!Tsg_engine.Proxy.forward}
      on their {!routing_key}; analyze also names its {!cache_key}, so
      the degraded path can serve the replica's stored bytes, marked
      [degraded:true].
    - [stats] answers locally with the proxy and router counters
      ({!Tsg_engine.Proxy.router}) and the [stale] cache.
    - [shutdown] is broadcast to every shard through the proxy's
      router, then stops the proxy. *)
