(** The standalone proxy tier: one address in front of the fleet.

    {!Router} is client-side — every caller needs the endpoint list.
    The proxy runs the router's failover ({!Router.route}) {e once},
    server-side, behind a single TCP address, and adds the overload
    protection a shared ingress needs and a per-client router cannot
    provide:

    {ul
    {- {b Circuit breakers}, one per shard: the router's own
       {!Breaker}s (configured by {!Router.create}), which every
       {!Router.route} call reads and feeds.  A breaker-open shard is
       skipped without a connection attempt; the proxy and any other
       caller of the same router see the same state.}
    {- {b A retry budget} ({!Retry_budget}): a token bucket deposited
       by primary traffic ([retry_ratio] tokens per request, ~10%)
       and withdrawn by every retry (it is {!Router.route}'s [retry]
       predicate).  When the fleet is broadly unhealthy the budget
       drains and the proxy {e sheds} instead of retrying — a retry
       storm cannot multiply load fleet-wide.}
    {- {b A deadline-aware bounded admission queue}: at most
       [max_concurrent] requests talk upstream at once; up to
       [queue_depth] more wait FIFO.  A waiter whose deadline passes
       is dropped where it stands ([deadline_exceeded]); past the
       high-water mark the {e eldest} waiter is answered
       [overloaded] immediately and the newcomer takes its place —
       the oldest request is the one most likely already abandoned.}
    {- {b Degraded-mode serving}: when every candidate shard for a
       digest is breaker-open or failing, a request whose answer is
       in the shared disk cache is served {e stale}
       ({!Disk_cache.read_stale}) with a [degraded:true] marker
       spliced into the response ({!mark_degraded}) — byte-identical
       to the original cached answer after {!strip_degraded}.
       Protocol [tsa-rpc/5]; v4 clients ignore the unknown field and
       parse unchanged.}}

    The proxy is transport-and-policy only: it never parses model
    files (it cannot — the engine layer has no loader).  The caller
    ([Tsg_io.Service.proxy_handler], which [tsa proxy] serves) classifies
    each request line into a routing key and an optional disk-cache
    key, and hands the raw line to {!forward}.

    Counters under [<prefix>] (default ["proxy"]): [requests],
    [retries], [retry_budget_shed], [deadline_shed], [degraded],
    [degraded_miss], [queue_dropped], [queue_expired], [overloaded].
    The upstream side is the router's: its [requests], [rerouted],
    [failovers], [failed] and [breaker_open] counters and its
    [request_ms] latency histogram count the proxy's traffic. *)

(** The global retry token bucket.  Primary requests {!deposit}
    [ratio] tokens (capped at [burst]); every retry must
    {!try_withdraw} a whole token first.  Thread-safe. *)
module Retry_budget : sig
  type t

  val create : ?ratio:float -> ?burst:float -> unit -> t
  (** [ratio] (default 0.1) tokens deposited per primary request —
      i.e. retries are bounded to ~10% of traffic in steady state;
      [burst] (default 16) caps the bucket (and is its initial fill,
      so a cold proxy can absorb a small failure burst).
      @raise Invalid_argument if [ratio] is negative or not finite,
      or [burst < 1]. *)

  val deposit : t -> unit
  val try_withdraw : t -> bool
  (** [false] means the budget is exhausted: shed, don't retry. *)

  val balance : t -> float
end

type t

val create :
  ?metrics_prefix:string ->
  ?retry_ratio:float ->
  ?retry_burst:float ->
  ?queue_depth:int ->
  ?max_concurrent:int ->
  ?stale:Disk_cache.t ->
  Router.t ->
  t
(** [create router] builds the policy layer over an existing router,
    whose breakers, per-call [retries] and [timeout_s] it uses (set
    them with {!Router.create}).  Defaults: [queue_depth] 64,
    [max_concurrent] 32, budget defaults as in
    {!Retry_budget.create}.  [stale] is the shared disk cache read
    (never written) by the degraded path; omit it and degraded
    serving is off.
    @raise Invalid_argument on non-positive [queue_depth] or
    [max_concurrent]. *)

val router : t -> Router.t
(** The router given to {!create}. *)

(** What {!forward} decided about one request. *)
type outcome =
  | Fresh of string  (** a live shard answered with these bytes *)
  | Degraded of string * float
      (** every candidate shard was open or failing, but the disk
          cache held the answer: the {e unmarked} payload and its age
          in seconds.  Send [mark_degraded payload] to the client. *)
  | Shed of string * string
      (** dropped without an upstream answer: error [code]
          (["overloaded"] — queue full or retry budget exhausted — or
          ["deadline_exceeded"]) and a human-readable message *)
  | Failed of string
      (** all attempts failed and no stale answer existed: the last
          upstream error *)

val forward : t -> ?key:string -> ?cache_key:string -> string -> outcome
(** [forward t ~key ~cache_key request] runs one raw request line
    through admission, breakers and budget, and returns the decision.
    [key] is the routing key (the model digest; defaults to the
    request line itself, keeping unroutable requests deterministic);
    [cache_key] names the entry the degraded path may serve stale
    (omit for requests that are never disk cached).  The calling
    thread's ambient deadline ({!Deadline.current}, read once) bounds
    queueing and retrying; it is tested with {!Deadline.expired}, so
    a shed never moves the [deadline/cancelled] counter.  Past
    admission the request is one {!Router.route} call, whose attempts
    run one at a time on the calling thread.  When it fails, an
    expired deadline sheds [deadline_exceeded], a refused retry sheds
    [overloaded], and anything else takes the degraded path.  Blocks
    the calling thread — call it from a {!Server.serve} handler. *)

val mark_degraded : string -> string
(** Splice ["degraded":true] as the first field of a JSON object
    response.  Fixed-width and position-stable, so
    {!strip_degraded} recovers the original bytes exactly. *)

val strip_degraded : string -> string option
(** [Some original] iff the line carries the {!mark_degraded} marker
    — the inverse used by tests and byte-identity checks. *)

type stats = {
  requests : int;
  retries : int;
  shed : int;
      (** requests answered [Shed]: the sum of the [overloaded],
          [retry_budget_shed], [queue_expired] and [deadline_shed]
          counters *)
  degraded : int;  (** stale answers served *)
  degraded_miss : int;  (** degraded path taken but cache had nothing *)
  queue_dropped : int;  (** eldest waiters dropped past high-water *)
  queue_expired : int;  (** waiters whose deadline passed queueing *)
  breaker_trips : int;  (** the router's breaker transitions into [Open] *)
  budget_balance : float;
  active : int;  (** requests currently talking upstream *)
  queued : int;  (** requests currently waiting for admission *)
  breakers : string list;
      (** per-shard state, ["closed"] / ["open"] / ["half_open"], in
          {!Router.endpoints} order *)
}

val stats : t -> stats
