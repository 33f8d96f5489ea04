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
    {!route}, {!broadcast} and {!call_one} all read and feed the same
    breakers, so every caller sees one state per shard.

    {b Admission.}  [max_inflight] bounds this client's concurrent
    requests {e per shard}; a saturated home shard reroutes instead of
    queueing, and a fully saturated fleet returns [Error] — shedding,
    per shard, as PR 5's daemon does per connection.  An ambient
    {!Deadline} is honoured between attempts: a request that has run
    out of budget stops failing over and reports [deadline_exceeded].

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
  ?max_inflight:int ->
  ?breaker_window:int ->
  ?breaker_failures:int ->
  ?breaker_cooldown_ms:float ->
  Server.endpoint list ->
  t
(** [create endpoints] builds a router over the replica list.
    [retries] (default 2) and [backoff_ms] (default 50) are passed to
    {!Server.call} per attempt; [max_inflight] (default 64) is the
    per-shard concurrent-request bound; the [breaker_*] settings are
    each shard's {!Breaker.create} [window], [failures] and
    [cooldown_ms].
    @raise Invalid_argument on an empty endpoint list or breaker
    settings {!Breaker.create} rejects. *)

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

val route : t -> key:string -> string -> (string, string) result
(** [route t ~key request] sends the request line to the key's home
    shard, failing over down {!rank} on connection failure or
    saturation and skipping shards whose breaker is open, and returns
    the response line.  [Error] carries a human-readable reason
    ([deadline_exceeded], {!all_open_error}, saturation, or the last
    connection error). *)

val all_open_error : string
(** ["no shard available (all circuit breakers open)"]: the error
    {!route} returns, without dialing, when no candidate's breaker
    allows a call. *)

val next_allowed : t -> int list -> tried:bool array -> int option
(** [next_allowed t order ~tried] is the first shard of [order] not
    marked in [tried] whose breaker allows a call now — the candidate
    picker {!route} and the proxy share.  Picking a half-open shard
    takes its one trial slot: follow with {!call_one}, or give the
    slot back with {!abort}. *)

val abort : t -> int -> unit
(** Give back the half-open trial slot {!next_allowed} took for shard
    [i] when no call follows ({!Breaker.abort}). *)

type call_outcome =
  | Answered of string  (** the shard replied with this line *)
  | Saturated  (** at [max_inflight]; no connection was attempted *)
  | Call_failed of string  (** connection or conversation failure *)

val call_one : ?timeout_s:float -> t -> int -> string -> call_outcome
(** [call_one t i request] sends one request to shard [i] and nothing
    else: no failover; [Server.call] runs with the router's [retries].
    Admission ([max_inflight]) applies, and the outcome is recorded
    into the shard's breaker; [Saturated] gives back a half-open trial
    slot and is never charged as a failure.  It does not consult the
    breaker — pick the shard with {!next_allowed}.  This is the
    building block for callers that own their own retry policy — the
    proxy tier's retry budget is written against it, on a router
    created with [~retries:0].  [timeout_s] bounds the socket
    conversation (see {!Server.call}).
    @raise Invalid_argument if [i] is out of range. *)

val shard_count : t -> int
(** Number of shards (the length of {!endpoints}). *)

val broadcast : t -> string -> (Server.endpoint * (string, string) result) list
(** [broadcast t request] sends the request to {e every} shard through
    {!call_one} (breakers not consulted, outcomes recorded) and pairs
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
