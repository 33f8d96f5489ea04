(** The cycle-time algorithm of the paper (Sections VI and VII).

    For each of the [b] border events [g], a [g]-initiated timing
    simulation is run over [b] periods of the unfolding; after each
    full period the average occurrence distance
    [Delta_{g_0}(g_i) = t_{g_0}(g_i) / i] is collected.  The cycle time
    is the maximum of the [b^2] collected values (Propositions 7 and
    8), and a critical cycle is recovered by backtracking the longest
    path that realised the maximum (Proposition 1).  Total cost
    O(b^2 m). *)

type sample = {
  period : int;  (** the instance index [i >= 1] *)
  time : float;  (** [t_{g_0}(g_i)] *)
  average : float;  (** [Delta_{g_0}(g_i) = time / period] *)
}

type border_trace = {
  border_event : int;
  samples : sample list;  (** one per period [1 .. b] *)
}

type report = {
  cycle_time : float;
  critical_event : int;  (** the border event realising the maximum *)
  critical_period : int;  (** the instance index realising it *)
  critical_walk : int list;
      (** the backtracked closed walk, as Signal-Graph arc ids; its
          delay sum over token count equals [cycle_time] *)
  critical_cycles : Cycles.cycle list;
      (** the simple cycles of maximum effective length obtained by
          decomposing the walk (Proposition 5); at least one *)
  border : int list;  (** the border events used as the cut set *)
  periods_simulated : int;
  traces : border_trace list;  (** the full Delta tables, per border event *)
}

exception Not_analyzable of string
(** Raised when the graph has no repetitive events (no cycles, hence
    no cycle time). *)

val analyze : ?periods:int -> ?jobs:int -> Signal_graph.t -> report
(** Runs the algorithm.

    The ambient per-thread deadline ({!Tsg_engine.Deadline.current})
    bounds the whole analysis (unfolding construction, simulations and
    backtracking): wrap the call in
    {!Tsg_engine.Deadline.with_deadline} to give it a budget.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget.

    [periods] overrides the number of simulated periods.  The default
    is the border-set size [b], which is always sufficient; any value
    at least the maximum occurrence period of a simple cycle is also
    sufficient (e.g. the Fig. 1 oscillator needs one period).  Beware
    the paper's Proposition 6: a {e minimum cut set's} size is NOT a
    valid choice in general (see the erratum at
    {!Cut_set.occurrence_period_bound}).

    [jobs] (default 1) runs the [b] independent event-initiated
    simulations on that many domains — the algorithm's outer loop is
    embarrassingly parallel.  The simulations go through
    {!Timing_sim.simulate_many} (per-domain scratch arenas, windowed
    scans, simulations self-scheduled one claim at a time with the
    heaviest window first rather than pre-split into contiguous
    chunks); backtracking re-runs the single critical simulation, so a
    trace shows [b + 1] [longest_paths] spans.  The report — down to
    the byte, when serialised — is independent of [jobs].

    @raise Not_analyzable on a graph without repetitive events. *)

val cycle_time : ?periods:int -> ?jobs:int -> Signal_graph.t -> float
(** Just the cycle time. *)

(**/**)

(** The pieces of [analyze] that {!Whatif} must share to keep warm
    re-analysis byte-identical to a cold run: the sample table
    construction, the tie-breaking fold that selects the critical
    (event, period) pair, and the backtrack + report assembly.  Not
    part of the public API. *)
module Internal : sig
  val trace_of_times : (int -> float) -> Unfolding.t -> int -> int -> border_trace
  (** [trace_of_times time_of u periods g0] builds [g0]'s Delta table
      from an arbitrary occurrence-time accessor. *)

  val best_of_traces : border_trace list -> (int * int * float) option
  (** The (event, period, average) realising the maximum, with
      [analyze]'s exact tie-breaking. *)

  val finish :
    Signal_graph.t ->
    Unfolding.t ->
    border:int list ->
    periods:int ->
    traces:border_trace list ->
    report
  (** Critical-sample selection, backtracking (re-running the one
      critical simulation over [u]) and report assembly.  [g] is the
      graph the critical walk is decomposed against — on the warm
      path, the {e edited} graph, and [u] its patched unfolding.  The
      backtrack runs under the ambient deadline.
      @raise Not_analyzable if [traces] holds no samples.
      @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)
end

(**/**)

val check_walk : Signal_graph.t -> report -> bool
(** Internal consistency check: the critical walk is closed, its
    ratio equals [cycle_time], and every reported critical cycle has
    effective length [cycle_time] (up to floating-point tolerance). *)
