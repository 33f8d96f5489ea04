(** Unfolding of a Timed Signal Graph (Section III.B).

    The unfolding is an acyclic process in which every node is a single
    instantiation [e_i] of an event [e] of the Signal Graph.  Period 0
    contains the first instantiation of every event; period [i > 0]
    contains the [i+1]-th instantiations of the repetitive events only.

    Arcs: a Signal-Graph arc [u -> v] with marking [m] induces the
    unfolding arcs [u_(i-m) -> v_i] for all valid [i]; if the arc is
    disengageable (or its source is non-repetitive) it induces only the
    single arc [u_0 -> v_m].  Arcs with [i - m < 0] impose no
    constraint: their token is part of the initial activity.

    Instances are addressed by dense integer ids, period-major: period
    0 holds every event at its own id, period [p >= 1] the [r]
    repetitive events at [n + (p-1)*r + j] ([j] the event's rank among
    the repetitive ones).  The set [I_u] of initial events of the
    unfolding (the events from [I] plus the events whose in-arcs are
    all initially active) coincides with the set of instances that
    have no in-arc.

    The unfolding is periodic and is stored that way: nothing in it
    grows with the period count.  Every period [p >= 2] has the arcs of
    period 2 with every id shifted by [(p-2)*r], so one construction
    builds {e slice templates} — the in-slices of periods 0, 1 and the
    steady state, the out-slices of period 0, the steady state and the
    last period — plus the canonical orders of periods 0 and 1, from
    which the whole topological order follows.  Nothing is computed
    later, so an unfolding is immutable once built and safe to read
    from several domains at once. *)

type t

val make : Signal_graph.t -> periods:int -> t
(** [make g ~periods:k] unfolds periods [0 .. k-1] in
    [O(events + arcs)] time and memory, independent of [k]: at most six
    slice templates and two one-period topological sorts.  The ambient
    deadline ({!Tsg_engine.Deadline.current}, read once) is checked
    every 1024 rows of every template pass and every 8192 instances of
    each sort.
    @raise Invalid_argument if [k < 1].
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val signal_graph : t -> Signal_graph.t
val periods : t -> int

val instance_count : t -> int
(** Total number of instances. *)

val instance : t -> event:int -> period:int -> int
(** The instance id of [event] in [period].
    @raise Invalid_argument if the instance does not exist (period out
    of range, or a non-repetitive event in a period [> 0]). *)

val instance_opt : t -> event:int -> period:int -> int option

val event_of_instance : t -> int -> int * int
(** [(event id, period)] of an instance. *)

val initial_instances : t -> int list
(** The instances of [I_u]: those with no in-arcs, ascending. *)

(** {1 Slices}

    Instance [v]'s in-slice lists its in-arcs as [(source, arc id)]
    pairs, its out-slice its out-arcs as [(destination, arc id)].
    Slice order is fixed: an out-slice lists its arcs arc id ascending
    (an arc has at most one instance per source); an in-slice lists
    them by source id, then arc id — the order of enumerating the arc
    instances arc id ascending, then period ascending, sorted stably by
    source and then stably by destination.  Longest-path ties are
    broken in this order, so it is part of every report's bytes. *)

val iter_in : t -> int -> (int -> int -> unit) -> unit
(** [iter_in u v f] calls [f src arc] over [v]'s in-slice, in order. *)

val iter_out : t -> int -> (int -> int -> unit) -> unit
(** [iter_out u v f] calls [f dst arc] over [v]'s out-slice, in order. *)

val iter_arc_instances : t -> int -> (int -> int -> unit) -> unit
(** [iter_arc_instances u a f] calls [f src dst] for every unfolding
    arc that instantiates Signal-Graph arc [a], period ascending. *)

val iter_topological : t -> (int -> unit) -> unit
(** Every instance in the canonical topological order of
    {!Tsg_graph.Topo.sort} (smallest available id first).  That order
    is period-major: period 0's order, then period 1's order once per
    later period, shifted by [r] ids a period (the argument is in
    [unfolding.ml]). *)

val topo_position : t -> int -> int
(** [topo_position u v] is the index of instance [v] in the order of
    {!iter_topological}.  An instance can only reach instances at
    strictly larger positions, which is what lets a [g]-initiated
    simulation skip the whole prefix before [g]'s position (the
    windowed kernel of {!Timing_sim}).  Positions share the period
    layout of ids: period [p] occupies positions
    [period_base u p ..] as it occupies those ids. *)

val delays : t -> float array
(** Delay per Signal-Graph arc id. *)

val warm_caches : t -> unit
(** Does nothing: every view is built by {!make} and {!patch}.  Kept
    for source compatibility with callers written when the views were
    lazy. *)

(** {1 Periodic views}

    What the hot kernels read: they walk the periods in order, each
    period's instances in {!period_order}, and read the instance's row
    of the period's template, adding the template's id shift.  Rows
    are indexed by the {e period-local} index: the event id in period
    0, the rank among the repetitive events after, so instance
    [period_base u p + li] owns row [li].  Do not mutate the arrays. *)

type slices = private {
  starts : int array;  (** row [li] is [starts.(li) .. starts.(li+1) - 1] *)
  ids : int array;  (** neighbour instance ids, as in period [home] *)
  arcs : int array;  (** the Signal-Graph arc each entry instantiates *)
  home : int;
}

val period_base : t -> int -> int
(** The id (and topological position) of period [p]'s first instance. *)

val period_order : t -> int -> int array
(** Period [p]'s instances in canonical topological order, as
    period-local indices.  Every [p >= 1] shares one array. *)

val in_slices : t -> int -> slices
(** The in-slice template of period [p]. *)

val out_slices : t -> int -> slices
(** The out-slice template of period [p]. *)

val shift : t -> slices -> int -> int
(** [shift u s p]: what to add to [s]'s ids to read them in period
    [p]. *)

val split : t -> int -> int * int
(** [split u x] is the period of an instance id, or of a topological
    position, and its offset within the period (the period-local index
    of an id, the index into {!period_order} of a position). *)

(** {1 Structural patching}

    Instance ids depend only on the event set, the event classes and
    the period count — never on the arc table.  An arc-level edit
    (add, remove, marking or disengageability flip) therefore keeps
    every instance id stable, and the unfolding can be {e patched}:
    the edited graph's own [O(events + arcs)] build, plus the diff of
    the instance sets a warm re-analysis seeds from. *)

type patch_delta = {
  pd_spliced : (int * int) array;
      (** (src, dst) instance pairs present in the patched dag but not
          the base one — instantiations of added or flipped arcs *)
  pd_dropped : (int * int) array;
      (** instance pairs of removed or flipped base arcs — present in
          the base dag but not the patched one *)
}

val patch : t -> Signal_graph.t -> arc_map:int array -> t * patch_delta
(** [patch u g' ~arc_map] is an unfolding of [g'] over the same
    periods and instance space as [u], plus the instance-level diff.
    [arc_map.(a)] is the arc id of base arc [a] in [g'], or [-1] if it
    was removed; mapped arcs must keep their endpoints (delay, marking
    and disengageability may change), surviving ids must be assigned
    in increasing order, and [g']'s remaining arcs are treated as
    additions.  The patched unfolding is the one [make g'] builds:
    same slices (which pins longest-path tie-breaking), same canonical
    order, [g']'s {!delays}.  The base unfolding is not mutated.

    A {e delay-only} edit — the same arc count, [arc_map] the
    identity, and every arc keeping its endpoints, marking and
    disengageability — changes no arc instance.  It costs
    [O(events + arcs)] and builds nothing: the result shares [u]'s
    templates and orders, with [g'] and its delays, and the delta is
    empty.  Any other edit rebuilds under the ambient deadline, read
    once and checked as {!make} checks it.
    @raise Invalid_argument if [g'] changes the event set or classes,
    or [arc_map] is inconsistent with the two arc tables.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)
