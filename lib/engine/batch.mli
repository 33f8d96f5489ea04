(** Fault-isolated concurrent batch execution over a {!Pool}.

    A batch runs one job per item on the shared (or a given) pool.  A
    job that returns [Error] or raises affects only its own entry —
    the rest of the batch keeps going, which is what a sweep over a
    directory of models wants: one malformed file must not abort the
    other ninety-nine.

    Per-item wall time is measured, and the counters [batch/items] /
    [batch/errors] in {!Metrics} are bumped as items complete. *)

type 'a entry = {
  label : string;  (** the item's display name (e.g. its file path) *)
  elapsed_ms : float;  (** wall time spent on this item *)
  outcome : ('a, string) result;
      (** the job's result; exceptions are caught and rendered with
          [Printexc.to_string] *)
}

val run :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?deadline_ms:float ->
  ?cache:('b, string) result Cache.t ->
  label:('a -> string) ->
  f:('a -> ('b, string) result) ->
  'a list ->
  'b entry list
(** [run ~label ~f items] applies [f] to every item, [jobs] at a time
    (default: {!Pool.recommended}; [jobs <= 1] runs sequentially on
    the calling domain), on [pool] (default: {!Pool.default}).
    Entries come back in the order of [items].

    [deadline_ms] bounds {e each item} separately: the item's job runs
    under a fresh ambient {!Deadline} (picked up by
    [Cycle_time.analyze] and the other cancellation-aware stages), and
    on expiry that item's outcome is
    [Error "deadline_exceeded: ..."] while the rest of the sweep — and
    the pool worker that ran it — continue normally.  A timed-out
    outcome is never stored in [cache].

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
