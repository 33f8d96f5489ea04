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

    Instances are addressed by dense integer ids.  The set [I_u] of
    initial events of the unfolding (the events from [I] plus the
    events whose in-arcs are all initially active) coincides with the
    set of instances that have no in-arc.

    One construction builds every view at once — both CSR adjacency
    arrays, the topological order, its inverse and the delay table —
    and nothing is computed later, so an unfolding is immutable once
    built and safe to read from several domains at once. *)

type t

val make : ?deadline:Tsg_engine.Deadline.t -> Signal_graph.t -> periods:int -> t
(** [make g ~periods:k] materialises periods [0 .. k-1] with all the
    views below, in [O(k * arcs)] plus a heap-ordered topological
    sort.  [deadline] is checked at amortised intervals throughout.
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

(** {1 Views}

    Arrays built once per unfolding and shared (do not mutate them).
    They are what keeps the O(b^2 m) algorithm's constant factor
    small. *)

val in_adjacency : t -> int array * int array * int array
(** [(starts, srcs, arc_ids)] in CSR form: the in-arcs of instance [v]
    are the entries [starts.(v) .. starts.(v+1) - 1]; each carries the
    id of the Signal-Graph arc it instantiates.  Slice order is fixed:
    enumerate the arc instances arc id ascending, then period
    ascending, and sort them stably by source; the in-slices list that
    sequence's entries stably by destination.  Longest-path ties are
    broken in this order, so it is part of every report's bytes. *)

val out_adjacency : t -> int array * int array * int array
(** Same, for out-arcs: [(starts, dsts, arc_ids)]; a source's slice
    lists its arcs in the enumeration order above. *)

val topological_order : t -> int array
(** A topological order of the instances.  For {!make} it is the
    canonical order of {!Tsg_graph.Topo.sort} (smallest available id
    first); a {!patch}ed unfolding may carry another valid order. *)

val topo_position : t -> int array
(** The inverse permutation of {!topological_order}:
    [topo_position u.(v)] is the index of instance [v] in the order.
    An instance can only reach instances at strictly larger positions,
    which is what lets a [g]-initiated simulation skip the whole
    prefix before [g]'s position (the windowed kernel of
    {!Timing_sim}). *)

val delays : t -> float array
(** Delay per Signal-Graph arc id. *)

val warm_caches : t -> unit
(** Does nothing: every view is built by {!make} and {!patch}.  Kept
    for source compatibility with callers written when the views were
    lazy. *)

(** {1 Structural patching}

    Instance ids depend only on the event set, the event classes and
    the period count — never on the arc table.  An arc-level edit
    (add, remove, marking or disengageability flip) therefore keeps
    every instance id stable, and the unfolding can be {e patched} in
    place of a full re-unfold: rebuild the CSR adjacency views from
    the edited arc table with {!make}'s own construction, and repair
    the topological order only inside the position window disturbed
    by the spliced arcs. *)

type patch_delta = {
  pd_spliced : (int * int) array;
      (** (src, dst) instance pairs present in the patched dag but not
          the base one — instantiations of added or flipped arcs *)
  pd_dropped : (int * int) array;
      (** instance pairs of removed or flipped base arcs — present in
          the base dag but not the patched one *)
}

val patch :
  ?deadline:Tsg_engine.Deadline.t ->
  t ->
  Signal_graph.t ->
  arc_map:int array ->
  t * patch_delta
(** [patch u g' ~arc_map] is a fresh unfolding of [g'] over the same
    periods and instance space as [u], plus the instance-level diff.
    [arc_map.(a)] is the arc id of base arc [a] in [g'], or [-1] if it
    was removed; mapped arcs must keep their endpoints (delay, marking
    and disengageability may change), surviving ids must be assigned
    in increasing order, and [g']'s remaining arcs are treated as
    additions.  The patched CSR views are bit-identical to those of a
    cold [make g'] (one construction builds both, which also pins
    longest-path tie-breaking); the topological order is the base
    order when no spliced arc runs backwards against it, repaired by a
    bounded local re-rank otherwise, and in either case a valid order
    of the patched dag.  The base unfolding is not mutated; the two
    share the base topo arrays when reuse is possible (both treat them
    as read-only).
    @raise Invalid_argument if [g'] changes the event set or classes,
    or [arc_map] is inconsistent with the two arc tables. *)

val pp_instance : t -> int Fmt.t
(** Prints an instance as [a+@2] (event [a+], period 2). *)
