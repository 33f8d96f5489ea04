(** A client-side shard router over replica daemons.

    The serving tier's fan-out: N replicas of the daemon (Unix socket
    or TCP, see {!Server.endpoint}) behind one [route] call.  Requests
    carry a {e routing key} — the daemon's callers use
    [Signal_graph.digest], the same content address the caches key on
    — and the router sends each key to a stable {e home shard} via
    rendezvous (highest-random-weight) hashing: every client, with the
    same endpoint list, picks the same shard for the same key, so each
    replica's in-memory cache concentrates on its own slice of the
    keyspace.  Because responses are byte-identical by construction,
    any replica can stand in for any other: when the home shard is
    down or saturated the request {e reroutes} down the preference
    order and the answer is the same bytes, just a colder cache.

    {b Health.}  Each shard has one {!Breaker}, the only health state
    the router keeps.  Every call outcome is recorded into it (after
    {!Server.call}'s own jittered retries): [breaker_failures] failures
    among the last [breaker_window] outcomes trip it open, and an open
    shard is skipped without a connection attempt.  After
    [breaker_cooldown_ms] one trial request is let through
    (half-open); its outcome closes or re-opens the breaker.  When
    every candidate's breaker is open, {!route} fails at once with
    {!all_open_error} rather than dialing a shard known to be down.
    {!route} and {!broadcast} read and feed the same breakers, so
    every caller sees one state per shard.

    {b Admission.}  [max_inflight] bounds this client's concurrent
    requests {e per shard}; a saturated home shard reroutes instead of
    queueing, and a fully saturated fleet returns [Error] — shedding
    per shard, as the daemon does per connection.  An ambient
    {!Deadline} is honoured between attempts: a request that has run
    out of budget stops failing over and reports [deadline_exceeded].

    {!route} is the fleet's one failover loop: [tsa client
    --endpoints] calls it directly, and {!Proxy.forward} calls it
    with its retry budget as the [retry] predicate, so the counters
    below read the same on a client and on the proxy.

    Counters under [<prefix>] (default ["router"]): [requests],
    [rerouted] (answered by a shard other than the key's home),
    [failovers] (attempts that moved on after a failure), [failed]
    (requests with no shard left to try) and [breaker_open] (breaker
    trips into the open state), plus the [request_ms] latency
    histogram. *)

type t

val create :
  ?metrics_prefix:string ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?timeout_s:float ->
  ?max_inflight:int ->
  ?breaker_window:int ->
  ?breaker_failures:int ->
  ?breaker_cooldown_ms:float ->
  Server.endpoint list ->
  t
(** [create endpoints] builds a router over the replica list.
    [retries] (default 0), [backoff_ms] (default 50) and [timeout_s]
    (default none) are passed to {!Server.call} per attempt — a
    timeout makes a wedged shard fail, and so trip its breaker,
    instead of holding the caller; [max_inflight] (default 64) is the
    per-shard concurrent-request bound; the [breaker_*] settings are
    each shard's {!Breaker.create} [window], [failures] and
    [cooldown_ms].
    @raise Invalid_argument on an empty endpoint list, a [timeout_s]
    that is not finite and positive, or breaker settings
    {!Breaker.create} rejects. *)

val close : t -> unit
(** Does nothing.  The router holds no resources — connections are
    per-call and it starts no thread; [close] stays only for source
    compatibility. *)

val endpoints : t -> Server.endpoint list
(** The replica list, in the order given to {!create} — shard [i] of
    the counters and {!shard_stats} is [List.nth] of this list. *)

val home : t -> string -> int
(** [home t key] is the index of the key's home shard — the head of
    the rendezvous preference order, ignoring health.  Deterministic
    across processes: every client agrees. *)

val rank : t -> string -> int list
(** The full preference order for [key] (home first).  [route] tries
    shards in exactly this order. *)

val route :
  ?retry:(unit -> bool) -> t -> key:string -> string -> (string, string) result
(** [route t ~key request] sends the request line to the key's home
    shard, failing over down {!rank} on connection failure or
    saturation and skipping shards whose breaker is open, and returns
    the response line.  Each shard is tried at most once, one at a
    time on the calling thread.  [retry] (default: always [true]) is
    asked before every attempt after the first; when it answers
    [false] the request stops without calling the shard it picked,
    whose half-open trial slot, if it took one, goes back.  [Error]
    carries a human-readable reason ([deadline_exceeded],
    {!all_open_error}, saturation, or the last connection error). *)

val all_open_error : string
(** ["no shard available (all circuit breakers open)"]: the error
    {!route} returns, without dialing, when no candidate's breaker
    allows a call. *)

val shard_count : t -> int
(** Number of shards (the length of {!endpoints}). *)

val broadcast : t -> string -> (Server.endpoint * (string, string) result) list
(** [broadcast t request] sends the request to {e every} shard, one
    call each (breakers not consulted, outcomes recorded), and pairs
    each endpoint with its outcome — for [stats] aggregation and
    fleet-wide [shutdown]. *)

type shard_stats = {
  endpoint : string;  (** {!Server.endpoint_to_string} form *)
  healthy : bool;  (** the breaker is [Closed] *)
  breaker : Breaker.state;
  inflight : int;
  served : int;  (** requests this shard answered *)
  failed : int;  (** attempts this shard failed *)
}

type router_stats = {
  requests : int;
  rerouted : int;  (** served by a shard other than the key's home *)
  failovers : int;
  breaker_trips : int;  (** breaker transitions into [Open] *)
  shards : shard_stats list;
}

val stats : t -> router_stats
