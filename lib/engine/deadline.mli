(** Time budgets and cooperative cancellation for long-running
    analyses.

    A deadline pairs an absolute expiry instant (from a [budget_ms])
    with an atomic cancel flag.  The pipeline's long loops — the
    timing-simulation kernel, unfolding construction, state-space
    exploration — call {!check} at amortised intervals (every few
    thousand iterations), so an analysis of a pathological input stops
    within a small slack of its budget instead of running unbounded.
    Expiry raises {!Deadline_exceeded}; all kernel state is
    epoch-stamped scratch data, so the unwound domain (and its pool
    slot) is immediately reusable.

    A budget reaches an analysis one way only: the caller wraps the
    job in {!with_deadline} and each entry point reads it once via
    {!current}, as [Batch.run ?deadline_ms], the daemon's and the
    proxy's [timeout_ms] and [tsa analyze --timeout-ms] do.

    The first trip of each deadline bumps the [deadline/cancelled]
    counter in {!Metrics}.

    The clock is wall time ([Unix.gettimeofday]; the stdlib exposes no
    monotonic clock), so treat budgets as coarse resource fences, not
    precise timers. *)

exception Deadline_exceeded

type t

val none : t
(** The deadline that never expires and cannot be cancelled.
    {!check} on it is two loads and a compare — cheap enough for hot
    paths to call unconditionally. *)

val make : ?budget_ms:float -> unit -> t
(** [make ~budget_ms ()] expires [budget_ms] from now; without
    [budget_ms] the result only trips via {!cancel}. *)

val cancel : t -> unit
(** Flip the cancel flag (thread-safe, idempotent; no-op on
    {!none}).  The next {!check} on any domain raises. *)

val expired : t -> bool
(** True once cancelled or past the budget (does not raise). *)

val remaining_ms : t -> float option
(** Milliseconds left, clamped to 0; [None] when there is no time
    budget. *)

val check : t -> unit
(** @raise Deadline_exceeded once {!expired}. *)

val current : unit -> t
(** The innermost {!with_deadline} on this thread, or {!none}. *)

val with_deadline : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] as this thread's ambient deadline (restored on
    exit, exceptions included).  The slot is per sys-thread, so
    concurrent daemon requests — which share one domain — cannot
    clobber each other's budgets. *)

val error_message : t -> string
(** The canonical wire/CLI message for a tripped deadline; always
    prefixed ["deadline_exceeded: "] so clients can dispatch on it. *)
