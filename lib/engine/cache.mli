(** A content-addressed LRU cache for analysis results.

    The paper's algorithm costs [O(b^2 m)] per graph; a service that
    answers repeated queries over the same graphs re-pays that cost on
    every call unless results are remembered.  This cache maps a {e
    content address} — typically [Tsg.Signal_graph.digest], which is
    stable under event/arc declaration reordering — to a previously
    computed value, with a fixed capacity and least-recently-used
    eviction.

    Every operation is mutex-protected and safe to call from any
    domain.  Hits, misses and evictions are counted both per cache
    (see {!stats}) and process-wide in {!Metrics} under
    [<prefix>/hits], [<prefix>/misses] and [<prefix>/evictions], so
    they appear in the JSON metrics block with no extra plumbing. *)

type 'v t

val create : ?metrics_prefix:string -> capacity:int -> unit -> 'v t
(** A fresh cache holding at most [capacity] entries (a [capacity] of
    [0] disables storage: every lookup misses and nothing is kept).
    [metrics_prefix] (default ["cache"]) names the {!Metrics} counters
    this cache bumps.
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : 'v t -> int
(** The maximum number of entries. *)

val length : 'v t -> int
(** The number of entries currently held. *)

val find : 'v t -> string -> 'v option
(** [find t key] is the cached value, marking the entry most recently
    used; [None] counts as a miss, [Some _] as a hit. *)

val add : 'v t -> string -> 'v -> unit
(** [add t key v] inserts (or replaces) the entry and marks it most
    recently used, evicting the least recently used entry if the cache
    is full.  Neither a hit nor a miss is counted. *)

val find_or_add : 'v t -> string -> (unit -> 'v) -> 'v
(** [find_or_add t key compute] is [find t key], computing and
    inserting the value on a miss.  [compute] runs outside the cache
    lock, and a key is computed at most once at a time: a concurrent
    caller of a key that is being computed waits for that computation
    and is served its value, counted as a hit (even with a [capacity]
    of [0]).  The wait is bounded by the waiter's own ambient
    {!Deadline.current}: once that expires the waiter raises
    {!Deadline.Deadline_exceeded}, while the computation carries on
    for its caller.  Exceptions from [compute] propagate and leave the cache
    unchanged; its waiters then start over, so one of them computes
    the key itself.  [compute] must not look up its own key. *)

val remove : 'v t -> string -> unit
(** Drop one entry (a no-op if absent).  Not counted as an eviction. *)

val clear : 'v t -> unit
(** Drop every entry and reset the per-cache hit/miss/eviction
    counters (the {!Metrics} counters are left alone). *)

type stats = {
  hits : int;  (** lookups answered from the cache *)
  misses : int;  (** lookups that found nothing *)
  evictions : int;  (** entries dropped by the LRU policy *)
  length : int;  (** entries currently held *)
  capacity : int;  (** maximum number of entries *)
}

val stats : 'v t -> stats
(** A consistent snapshot of the counters and occupancy. *)
