(** Fault-isolated concurrent runs of independent items — the one
    item runner of the library.

    A run applies one job per item through {!Pool.map_claims}.  A job
    that returns [Error] or raises affects only its own entry — the
    rest of the run keeps going, which is what a sweep over a
    directory of models wants: one malformed file must not abort the
    other ninety-nine.  What-if sweeps ([Tsg.Whatif.sweep_changes])
    run their scenarios here too.

    Per-item wall time is measured.  A run without a [with_ctx]
    bracket is a batch: it bumps the counters [batch/items] /
    [batch/errors] in {!Metrics} as items complete and times the whole
    run under [batch/run].  A bracketed run (a sweep) counts none of
    them. *)

type 'a entry = {
  label : string;  (** the item's display name (e.g. its file path) *)
  elapsed_ms : float;  (** wall time spent on this item *)
  outcome : ('a, string) result;
      (** the job's result; exceptions are caught and rendered with
          [Printexc.to_string] *)
}

val run :
  ?jobs:int ->
  ?deadline_ms:float ->
  ?cache:('b, string) result Cache.t ->
  ?with_ctx:(('c -> unit) -> unit) ->
  label:('a -> string) ->
  f:('c option -> 'a -> ('b, string) result) ->
  'a list ->
  'b entry list
(** [run ~label ~f items] applies [f] to every item by [jobs]
    participants (default: {!Pool.recommended}; [jobs <= 1] runs
    inline on the calling domain and never touches the pool).  Entries
    come back in the order of [items].

    [with_ctx] is a per-participant bracket: each participant runs
    [with_ctx k] once and [k ctx] then runs its items as
    [f (Some ctx) item] (a sweep acquires one scratch per participant
    this way).  Without it, every item runs as [f None item].

    Deadlines: the caller's ambient {!Deadline} is read once, when the
    run starts, and holds on every participant.  No item starts after
    it has expired.  [deadline_ms] gives {e each item} its own fresh
    budget, installed as the ambient deadline of the job; without
    [deadline_ms] the job runs under the caller's deadline.  When a
    deadline trips, that item's outcome is
    [Error "deadline_exceeded: ..."] naming whichever deadline expired,
    while the rest of the run — and the pool worker that ran it —
    continue normally.  A timed-out outcome is never stored in
    [cache].

    When [cache] is given, outcomes are remembered under the item's
    [label] through {!Cache.find_or_add}: a sweep containing the same
    file several times analyzes it once (a duplicate is served the
    shared outcome, waiting for it if it is still being computed),
    and a later sweep given the same cache serves unchanged labels
    without re-running [f].  Labels are used
    verbatim as cache keys, so a label must determine the result — to
    key by {e content} instead (surviving file edits and renames),
    perform the lookup inside [f] with a [Tsg.Signal_graph.digest]
    key, as [tsa serve] does. *)
