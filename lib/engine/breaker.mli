(** A per-shard circuit breaker: the one health model {!Router} keeps
    for each shard.  A sliding window of call outcomes trips the
    breaker [Open]; while open the shard is skipped without a
    connection attempt; after a cooldown exactly one trial call is
    admitted ([Half_open]), and its outcome closes or re-opens it.

    Deterministic: every operation takes [now] explicitly, so the
    state machine is unit-testable without clocks.  Thread-safe. *)

type t

type state = Closed | Open | Half_open

val create : ?window:int -> ?failures:int -> ?cooldown_ms:float -> unit -> t
(** [window] (default 16) outcomes are remembered; [failures]
    (default 5) failures among them trip the breaker; an open
    breaker admits a half-open trial after [cooldown_ms] (default
    1000).
    @raise Invalid_argument if [window <= 0], [failures <= 0],
    [failures > window] or [cooldown_ms < 0]. *)

val state : t -> now:float -> state
(** The state at time [now] (an open breaker whose cooldown has
    passed reads — and becomes — [Half_open]). *)

val allow : t -> now:float -> bool
(** May a call be attempted now?  [Closed]: always.  [Open]: never.
    [Half_open]: exactly one caller gets [true] (the trial) until
    its outcome is {!record}ed or {!abort}ed. *)

val record : t -> now:float -> ok:bool -> bool
(** Record an attempt's outcome.  Returns [true] when this record
    {e tripped} the breaker into [Open] (from [Closed] via the
    window, or a failed half-open trial) — callers count trips off
    this.  A success in [Half_open] closes the breaker and clears
    the window; outcomes arriving while [Open] (late replies from
    before the trip) are ignored. *)

val abort : t -> unit
(** Give back an un-attempted half-open trial slot (the shard was
    locally saturated, or the caller decided not to call after all;
    nothing reached the wire).  No-op in other states. *)
