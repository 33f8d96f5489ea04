(** Timing simulation of an unfolded Timed Signal Graph (Section IV).

    The timing simulation assigns to every instance [f] of the
    unfolding its occurrence time

    {v t(f) = 0                          if f is in I_u
t(f) = max { t(e) + d | e -d-> f }  otherwise v}

    i.e. the longest-path distance from the initial instances
    (Proposition 1).  The {e event-initiated} simulation [t_g] starts
    the clock at a chosen instance [g]: everything concurrent with or
    preceding [g] is assumed past (occurrence time 0, out-arcs
    neglected), so [t_g(f)] is the longest-path distance from [g] for
    instances reachable from [g] and [0] elsewhere. *)

type result = {
  time : float array;  (** occurrence time per instance id *)
  pred_instance : int array;
      (** argmax predecessor instance on a longest path, or [-1] *)
  pred_arc : int array;
      (** the Signal-Graph arc id realising the argmax, or [-1] *)
  reached : bool array;
      (** instances whose time is constrained (for an event-initiated
          simulation: reachable from the initiating instance; for the
          plain simulation: everything) *)
}

(** {1 Scratch arenas}

    The kernel is zero-allocation: all per-query state lives in an
    epoch-stamped workspace that is reused from query to query (no
    clearing pass — bumping the epoch invalidates every stamp at
    once).  Released arenas wait on one process-wide free list, so
    pool workers running {!simulate_many} claims, daemon threads and
    repeated analyses pay the allocation once and reuse it. *)

module Workspace : sig
  type t

  val capacity : t -> int

  val retained_capacity : int
  (** Arenas released by {!with_arena} are shrunk back to this many
      instances, so a one-off huge analysis does not pin max-size
      arrays in every arena it touched for the life of the process. *)

  val with_arena : int -> (t -> 'a) -> 'a
  (** [with_arena n f] runs [f] with an arena of capacity at least [n]:
      the most recently released one from the free list (counted as
      [kernel/arenas_reused], or [kernel/arenas_created] when it had to
      grow), else a fresh one ([kernel/arenas_created]).  The arena is
      [f]'s alone until [f] returns or raises, so nested and concurrent
      calls never share one and never wait for each other.  On release
      its capacity is bounded by {!retained_capacity} and it goes back
      on the list, which keeps at most
      [Tsg_engine.Pool.recommended () + 1] arenas (one per domain that
      can run a {!simulate_many} participant, plus one); an arena
      released past that bound is dropped. *)
end

type view
(** A borrowed, read-only view of a simulation result living in a
    {!Workspace} arena.  Only valid during the callback that received
    it — the arena is reused for the next query. *)

val view_time : view -> int -> float
(** Occurrence time of an instance; [0.] if unreached (matching
    {!result}[.time]). *)

val view_reached : view -> int -> bool

val simulate : Unfolding.t -> result
(** The timing simulation [t] of the whole unfolding.  The topological
    order and slice templates are built with the unfolding, so
    repeated simulations of the same unfolding (as the cycle-time
    algorithm performs, once per border event) pay the set-up cost
    once.

    Every entry point reads the ambient deadline
    ({!Tsg_engine.Deadline.current}) once and checks it once per 4096
    topo positions scanned (the inner relaxation loop is untouched, so
    the amortised cost is unmeasurable); on expiry they raise
    {!Tsg_engine.Deadline.Deadline_exceeded} and the arena goes back
    on the free list for the next query. *)

val simulate_initiated : Unfolding.t -> at:int -> result
(** [simulate_initiated u ~at:g] is the [g]-initiated timing
    simulation.  [time.(f) = 0.] and [reached.(f) = false] for every
    [f] not reachable from [g].

    The scan is {e windowed}: it starts at [g]'s position in the
    topological order ({!Unfolding.topo_position}), since earlier
    instances provably cannot be reached from [g].  Reachability is
    decided during the relaxation itself (no separate DFS): an
    instance is reached iff it is the root or an in-arc from a reached
    instance feeds it.

    @raise Invalid_argument if [g] is not an instance of [u]. *)

val backtrack : Unfolding.t -> at:int -> instance:int -> (int * int option) list
(** [backtrack u ~at ~instance] is
    [critical_path u (simulate_initiated u ~at) ~instance], read off
    the arena's predecessor arrays in place: one initiated simulation
    and one walk, with nothing the size of the unfolding copied.
    @raise Invalid_argument as {!simulate_initiated} does, or if
    [instance] is not an instance of [u]. *)

val simulate_many :
  ?jobs:int ->
  Unfolding.t ->
  roots:int array ->
  f:(int -> view -> 'a) ->
  'a array
(** [simulate_many u ~roots ~f] runs one [root]-initiated simulation
    per element of [roots] and returns [f root view] for each, in
    [roots] order.  With [jobs > 1] the roots are {e self-scheduled}
    over {!Tsg_engine.Pool.map_claims}: each participant acquires
    an arena once, then claims roots one at a time from a shared
    index, heaviest simulation window first (by
    {!Unfolding.topo_position} of the root — the cheap static cost
    estimate), so unevenly sized simulations never serialize into a
    tail chunk and only the values returned by [f] are allocated per
    query.  The caller's ambient deadline is carried to every
    participant and checked once per claim (at the top of every kernel
    window), which amortises cancellation to nothing while keeping
    latency one simulation at most.  [f] must not retain its [view]
    (the arena is recycled for the next root) and must be safe to run
    concurrently when [jobs > 1]. *)

val occurrence_times : Unfolding.t -> result -> event:int -> float array
(** [occurrence_times u r ~event] is the array of [t(e_i)] for
    [i = 0 .. periods-1] (length 1 for a non-repetitive event). *)

val average_occurrence_distance : Unfolding.t -> result -> event:int -> period:int -> float
(** [Delta(e_i) = t(e_i) / (i + 1)] — the average occurrence distance
    after [i] periods of a plain simulation (Section IV.C). *)

val initiated_average_distance :
  Unfolding.t -> result -> event:int -> period:int -> float
(** [Delta_{e_0}(e_i) = t_{e_0}(e_i) / i] for an [e_0]-initiated
    simulation.  @raise Invalid_argument if [period = 0]. *)

val critical_path : Unfolding.t -> result -> instance:int -> (int * int option) list
(** The longest path leading to [instance], root-first, as
    [(instance, arc entering it)] pairs; the root carries [None].
    This is the "backtracking" step of Section VI.B. *)
