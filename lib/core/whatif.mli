(** Incremental what-if analysis: warm-start re-analysis of delay
    edits (ROADMAP item 3).

    Interactive users run the paper's loop at scale: analyze, inspect
    the critical cycle, nudge a delay, re-analyze.  A cold
    {!Cycle_time.analyze} pays the full unfold + [b] simulations for
    every nudge; this module pays them {e once} ({!prepare}) and then
    answers each edit by repairing only what actually moved:

    - the unfolding, its topological order and per-root reachability
      depend only on topology and marking, so a pure delay edit reuses
      all of them: {!Unfolding.patch} shares the base templates and
      orders and only swaps the delays;
    - a root whose simulation never reaches an instance of an edited
      arc keeps its base Delta table verbatim ([whatif/reused]);
    - an affected root is {e repaired}, not re-simulated: a dirty
      propagation seeded at the edited arc's instances relaxes, in
      topological order, only the instances whose occurrence time
      may have changed ([whatif/resimulated] roots,
      [whatif/instances_repaired] instances).  Roots are repaired in
      blocks of up to 16 that share one scan, their times interleaved
      per instance, so each relaxation reads the adjacency once for
      the whole block;
    - an edit that folds back onto the base graph (zero net delta, or
      a {!Signal_graph.digest} match) short-circuits to the base
      report ([whatif/short_circuits]).

    {b Structural edits} (arc add/remove, marking flips) are warm too
    ({!change}): instance ids depend only on the event set, classes and
    period count, so the unfolding is {e patched} in place
    ({!Unfolding.patch}) — the edited graph's own [O(events + arcs)]
    unfolding, with the slices and canonical order a cold one has — and
    the same repair covers times {e and reachability} at once (an
    unreached instance carries [neg_infinity], which no sum lifts),
    seeded at the spliced, dropped and delay-edited arc instances
    (the structural change cone).  The
    one fallback: an edit that moves the {e border set} itself
    (changing which events carry initial activity) invalidates the
    prepared roots and is answered by a cold analysis
    ([whatif/structural_cold]); everything else is warm
    ([whatif/structural_warm]).  Edits that change the event set are
    out of scope — build the new graph and {!prepare} again.

    Every repaired quantity ranges over the same float operand sets as
    a cold run, so warm reports are {e byte-identical} (serialised via
    [Json_report.analysis_obj]) to [Cycle_time.analyze] of the edited
    graph — including structural edits — the property the test suite
    enforces. *)

type edit = { arc : int; delta : float }
(** Add [delta] to the delay of the Signal-Graph arc [arc].  Repeated
    edits of one arc within a scenario fold into a single delta. *)

type change =
  | Delay of edit  (** nudge a delay *)
  | Add_arc of { src : int; dst : int; delay : float; marked : bool }
      (** a new arc between existing events, appended after the
          surviving arcs (its id in the edited graph is reported by
          the analysis); disengageability follows the builder's
          auto-rule ({!Signal_graph.make_arc}) *)
  | Remove_arc of int  (** delete a base arc; surviving arcs keep
          their relative order (ids compact downward) *)
  | Set_marked of { arc : int; marked : bool }
      (** flip a base arc's initial marking in place *)
(** One element of a structural scenario.  Changes referencing a base
    arc use {e base} arc ids throughout the scenario, regardless of
    ordering; removing the same arc twice, or editing a removed arc,
    is invalid. *)

type path =
  | Short_circuit  (** the edit was a no-op: base report returned *)
  | Warm  (** unfolding + unaffected simulations reused *)
  | Cold  (** full re-analysis (fault injection only) *)

type stats = {
  reused : int;  (** border simulations answered from the base run *)
  resimulated : int;  (** border simulations repaired *)
  path : path;
}

type t
(** A prepared base: graph, unfolding, base report, and the per-root
    occurrence times retained from the base simulations ([b * n]
    floats, reachability folded in — for very large unfoldings, budget
    roughly [8 * b * instance_count] bytes). *)

val prepare : ?periods:int -> ?jobs:int -> Signal_graph.t -> t
(** One cold analysis (same parameters, report and ambient deadline
    as {!Cycle_time.analyze}) that additionally retains the warm-start
    tables.  [jobs] parallelises the base simulations; re-analyses are
    parallelised per scenario by {!sweep_changes} instead.
    @raise Cycle_time.Not_analyzable as {!Cycle_time.analyze}.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val base_report : t -> Cycle_time.report
val signal_graph : t -> Signal_graph.t
val border : t -> int list
val periods : t -> int

val digest : t -> string
(** {!Signal_graph.digest} of the base graph — the short-circuit key. *)

val edited_graph_changes : t -> change list -> Signal_graph.t
(** The base graph with a structural scenario applied: surviving arcs
    keep their relative order (ids compact downward past removals),
    additions are appended in scenario order.  This is the cold-side
    reference for the byte-identity law.
    @raise Invalid_argument on an out-of-range arc or event id, a
    non-finite delta, an edited delay that is negative or non-finite,
    a dead or duplicate arc reference, and invalid added-arc
    parameters.
    @raise Cycle_time.Not_analyzable when the edited graph fails
    structural validation (disconnected repetitive part, token-free
    cycle, …) — with the same message {!reanalyze_changes} raises. *)

type scratch
(** Reusable per-participant working memory for the dirty propagation
    (never shared between concurrent re-analyses): three [int] arrays
    over the instances, plus repaired times that grow with the change
    cone, to at most [16 * instance_count] floats. *)

val scratch : t -> scratch

val reanalyze_changes :
  ?scratch:scratch ->
  t ->
  change list ->
  Cycle_time.report * stats
(** The report of the edited graph, byte-identical (serialised) to
    [Cycle_time.analyze ~periods:(periods t) (edited_graph_changes t cs)].
    Without [scratch] a fresh one is allocated.  The ambient deadline
    ({!Tsg_engine.Deadline.current}) bounds the re-analysis.

    Every warm scenario patches the base unfolding
    ({!Unfolding.patch}, which shares the base templates outright for a
    delay-only scenario) and repairs over the patched one (structural
    ones count under [whatif/structural_warm] and
    [whatif/instances_spliced|dropped]), falling back to a cold
    analysis only when the border set itself moves
    ([whatif/structural_cold]).  A scenario whose edited arc
    table is literally the base one short-circuits.  The warm path
    carries the ["whatif/warm"] failpoint: when armed
    ({!Tsg_obs.Failpoint}), re-analysis falls back to a cold
    {!Cycle_time.analyze} of the edited graph ([whatif/cold_fallbacks]
    counts these) — same answer, no reuse.
    @raise Invalid_argument and @raise Cycle_time.Not_analyzable as
    {!edited_graph_changes}.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val sweep_changes :
  ?budget_ms:float ->
  ?jobs:int ->
  t ->
  change list array ->
  ((Cycle_time.report * stats, string) result * float) array
(** [sweep_changes t scenarios] re-analyses every scenario with
    {!reanalyze_changes} through {!Tsg_engine.Batch.run}, sharing the
    one prepared base across [jobs] participants (one {!scratch} per
    participant, scenarios claimed one at a time).  Results land at
    their scenario's index, each paired with the scenario's wall time
    in milliseconds.

    Failures are per-scenario: an invalid edit, a
    {!Cycle_time.Not_analyzable} graph or a tripped deadline turns
    into [Error message] for that scenario only.  Deadlines follow
    {!Tsg_engine.Batch.run}: [budget_ms] gives each scenario its own
    budget, and the caller's ambient deadline bounds the whole sweep. *)
