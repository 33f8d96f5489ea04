(** A persistent pool of OCaml 5 domains, and the one fan-out of the
    library.

    The per-border-event simulations of [Cycle_time], the runs of
    [Monte_carlo], a {!Batch}'s models and a what-if sweep's scenarios
    are independent of one another; all of them fan out through
    {!map} or {!map_claims}.  [jobs] is the number of participants:
    the calling domain plus [jobs - 1] pool workers, clamped to the
    number of items.  At [jobs <= 1] the items run inline on the
    caller, and the process-wide pool is neither created nor touched.

    Spawning and joining fresh domains on every call costs a few
    hundred microseconds per domain, which dwarfs the per-item work of
    small analyses; a pool is created once, its workers block on a
    queue, and every call reuses them.

    The pool size is capped at [Domain.recommended_domain_count ()] —
    oversubscribing domains (unlike threads) degrades the whole
    runtime, so callers may ask for more but never get them.  An
    explicit [jobs] beyond that count still engages the pool, so the
    oversubscription is bounded by the one calling domain.

    Both calls are deterministic: results land at their input's index,
    and when several items raise, the exception of the {e smallest}
    input index is re-raised in the caller with the backtrace captured
    at the failure site, regardless of scheduling. *)

type t

val recommended : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val create : ?size:int -> unit -> t
(** Spawns a pool of [size] worker domains (default and cap:
    {!recommended}; minimum 1).  The workers idle on a condition
    variable until work arrives. *)

val size : t -> int
(** The number of worker domains. *)

val map : ?pool:t -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] is [Array.map f xs] computed by [jobs]
    participants: the calling domain, which takes part in the work and
    blocks until every item is done, plus [jobs - 1] workers of [pool]
    (at most its size).  Without [pool], the workers come from one
    process-wide pool of {!recommended} workers, created by the first
    call that needs it and shut down [at_exit].  [jobs] is clamped to
    [Array.length xs]; [jobs <= 1] runs inline.  [f] must be safe to
    run concurrently (pure, or touching disjoint state).

    Because the caller always helps, [map] makes progress — and
    nested calls from inside pool tasks cannot deadlock — even when
    every worker is busy elsewhere.

    If [f] raises for one or more items on the pool, every item is
    still attempted, and the exception of the smallest failing index
    is re-raised with [Printexc.raise_with_backtrace]; inline, the
    first failing item raises at once. *)

val map_claims :
  ?pool:t ->
  jobs:int ->
  ?order:int array ->
  with_ctx:(('c -> unit) -> unit) ->
  f:('c -> 'a -> 'b) ->
  'a array ->
  'b array
(** {!map} with {e self-scheduling} participants and per-participant
    context.  Every participant runs [with_ctx k] exactly once; [k ctx]
    claims items one at a time from a shared atomic index and computes
    [f ctx item] for each, so expensive per-worker set-up (acquiring a
    scratch arena, opening a connection) is paid once per participant
    instead of once per item or once per static chunk — and no
    participant ever idles while another still holds unstarted work,
    which is what makes unevenly sized items schedule without barrier
    waste.  At [jobs <= 1] the items run inline, in input order,
    inside a single [with_ctx] bracket.

    [order], when given, is the claim schedule: the [k]-th claim
    processes input [order.(k)] (e.g. heaviest first, so stragglers
    start early instead of serializing the tail).  It must index every
    input exactly once, and it never affects {e where} results land —
    the output is [Array.map]-ordered regardless.  Inline runs ignore
    it.
    @raise Invalid_argument if [Array.length order <> Array.length xs].

    Scheduling is observable in the metrics registry: [pool/claims]
    counts items claimed on the pool and [pool/steals] the claims
    beyond a participant's fair share ([ceil (n / participants)] —
    work taken over from a busier sibling).  Inline runs count
    neither.

    Exceptions from [f] follow the {!map} contract.  If [with_ctx]
    itself fails on some pool participant, the remaining claims are
    failed with that exception rather than lost, so the call still
    returns (or raises) normally. *)

val shutdown : t -> unit
(** Drains the queue, terminates and joins the workers.  Subsequent
    {!map} calls on the pool run entirely on the calling domain. *)
