(** Timed Signal Graphs (Section III of the paper).

    A Signal Graph is a tuple [<A, I, ->, M, O>]: a set of events [A],
    initial events [I], a precedence relation (the arcs), a boolean
    initial marking [M], and a set of disengageable arcs [O] that
    influence the execution once only.  Repetitive events ([A_r]) fire
    infinitely often; the rest fire at most once.  A Timed Signal Graph
    labels every arc with a delay [>= 0].

    Events are addressed by dense integer ids assigned in declaration
    order; arcs likewise carry dense ids used by the token game and by
    critical-cycle backtracking. *)

type event_class =
  | Initial  (** in [I]: fires spontaneously at time 0; no in-arcs *)
  | Non_repetitive  (** fires at most once (e.g. [f-] in Fig. 1) *)
  | Repetitive  (** in [A_r]: oscillates forever *)

type arc = {
  arc_src : int;
  arc_dst : int;
  delay : float;
  marked : bool;  (** initial activity (a token, drawn as a bullet) *)
  disengageable : bool;
      (** active once only (a crossed arrow); always true for arcs
          whose source is non-repetitive and destination repetitive *)
}

type t

(** {1:construction Construction}

    A builder is a pair of growable arrays, one of events (with their
    classes) and one of arcs: declaring an event costs one hash of the
    {!Event.t}, adding an arc by id costs nothing more than the array
    write.  {!build} then freezes the arrays in time linear in the
    number of events plus arcs: it counting-sorts the arc ids into
    compressed rows by source and by target, checks every rule on
    those rows, and keeps them: {!out_arc_ids}/{!in_arc_ids} read a
    row.  The rules are checked in a fixed order, which is the order
    of the returned errors:
    + the per-arc rules, arc by arc in id order: a negative delay, a
      marked disengageable arc, a disengageable arc leaving a
      repetitive event, an arc from a repetitive to a non-repetitive
      event, an arc into an initial event;
    + strong connectivity of the repetitive part (forward and backward
      reachability from its smallest event);
    + liveness: Kahn's algorithm over the unmarked arcs must emit every
      event, else one token-free cycle is reported as the witness.

    {!with_arcs} runs the same freeze.  Both check the ambient
    {!Tsg_engine.Deadline.current} once per 8192 arcs and events, so a
    request budget also bounds reading a large model. *)

type builder

val builder : unit -> builder

val add_event : builder -> Event.t -> event_class -> unit
(** Declares an event.  @raise Invalid_argument on a duplicate. *)

val intern : builder -> Event.t -> event_class -> int
(** [intern b ev cls] is the id of [ev], declaring it with class [cls]
    first if it is new.  An event declared before keeps its class; read
    it with {!builder_class}.  Ids are dense, in declaration order. *)

val builder_class : builder -> int -> event_class
(** The class of a declared event.  @raise Invalid_argument if the id
    is out of range. *)

val add_arc :
  builder ->
  ?marked:bool ->
  ?disengageable:bool ->
  delay:float ->
  Event.t ->
  Event.t ->
  unit
(** [add_arc b ~delay u v] adds the arc [u -> v].  Both events must
    already be declared.  [marked] and [disengageable] default to
    [false]; an arc from a non-repetitive event to a repetitive one is
    made disengageable automatically (well-formedness, Section III.A).
    @raise Invalid_argument if either event is undeclared. *)

val add_arc_id :
  builder -> marked:bool -> disengageable:bool -> delay:float -> int -> int -> unit
(** {!add_arc} between events named by their ids (as {!intern} returns
    them), with no event lookup and no defaults.
    @raise Invalid_argument if either id is out of range. *)

type error =
  | Negative_delay of Event.t * Event.t * float
  | Marked_disengageable of Event.t * Event.t
      (** a marked disengageable arc never constrains anything *)
  | Disengageable_from_repetitive of Event.t * Event.t
      (** violates "no repetitive events before disengageable arcs" *)
  | Repetitive_to_non_repetitive of Event.t * Event.t
      (** would accumulate unboundedly many tokens *)
  | Initial_event_with_in_arc of Event.t
  | Repetitive_part_not_strongly_connected
  | Unmarked_cycle of Event.t list
      (** a token-free cycle: the graph is not live *)
  | No_repetitive_events

val pp_error : error Fmt.t

val build : builder -> (t, error list) result
(** Validates and freezes the graph (see {!section-construction} for
    the cost and the order of the checks).  The builder can still be
    extended and built again. *)

val build_exn : builder -> t
(** @raise Invalid_argument listing the validation errors. *)

val of_arcs :
  events:(Event.t * event_class) list ->
  arcs:(Event.t * Event.t * float * bool) list ->
  t
(** Convenience one-shot constructor; the [bool] is the marking.
    @raise Invalid_argument on validation errors. *)

val with_delays : t -> float array -> t
(** [with_delays g delays] is [g] with the delay of arc [i] replaced
    by [delays.(i)] — the topology, markings and disengageable flags
    are untouched, and event/arc ids are preserved, so views computed
    from the topology alone (an {!Unfolding}'s structure, its
    topological order) remain valid for the result.  This is the
    substrate of warm-start what-if analysis ({!Whatif}).
    @raise Invalid_argument if the array length differs from
    {!arc_count} or any delay is negative, NaN or infinite. *)

val make_arc :
  t -> ?marked:bool -> ?disengageable:bool -> delay:float -> int -> int -> arc
(** [make_arc g ~delay src dst] is an arc value between events of [g],
    built with the same auto-disengageable rule as {!add_arc} (an arc
    from a non-repetitive event to a repetitive one is disengageable
    whether or not the flag is given).  Combine with {!with_arcs} for
    structural edits.
    @raise Invalid_argument if either event id is out of range. *)

val with_arcs : t -> arc array -> (t, error list) result
(** [with_arcs g table] is [g] with its arc table replaced wholesale —
    the event set, classes and names are untouched, but arc ids are
    re-assigned by position in [table].  Unlike {!with_delays} this
    re-runs the full structural validation (strong connectivity of the
    repetitive part, liveness, marking rules), because topology and
    marking may have changed.  This is the substrate of structural
    what-if edits ({!Whatif.change}).
    @raise Invalid_argument if an arc endpoint is out of range. *)

(** {1 Accessors} *)

val event_count : t -> int
val arc_count : t -> int

val event : t -> int -> Event.t
(** The event with the given id.  @raise Invalid_argument if out of range. *)

val id : t -> Event.t -> int
(** @raise Not_found if the event is not in the graph. *)

val id_opt : t -> Event.t -> int option
val class_of : t -> int -> event_class
val is_repetitive : t -> int -> bool

val arc : t -> int -> arc
(** The arc with the given id. *)

val arcs : t -> arc array
(** All arcs, indexed by arc id (do not mutate). *)

val out_arc_ids : t -> int -> int list
(** Ids of arcs leaving the event, in insertion order.  The list is
    built from the graph's compressed rows on each call, in time
    linear in the event's out-degree. *)

val in_arc_ids : t -> int -> int list
(** Ids of arcs entering the event, in insertion order; built like
    {!out_arc_ids}. *)

val events_of : t -> Event.t array
(** All events indexed by id (do not mutate). *)

val repetitive_events : t -> int list
(** Ids of the events of [A_r], ascending. *)

val initial_events : t -> int list
(** Ids of the events of [I], ascending. *)

val signals : t -> string list
(** Distinct signal names, in first-appearance order. *)

val repetitive_count : t -> int

val to_digraph : t -> int Tsg_graph.Digraph.t
(** The underlying digraph over event ids; each arc is labelled with
    its arc id. *)

val repetitive_digraph : t -> int Tsg_graph.Digraph.t
(** The sub-digraph induced by the repetitive events (vertex ids are
    the original event ids; non-repetitive vertices are present but
    isolated).  Arc labels are TSG arc ids. *)

(** {1 Canonical form}

    Two graphs that differ only in declaration order — events declared
    in another sequence, arcs added in another sequence — describe the
    same Timed Signal Graph.  The canonical form erases that order so
    equal graphs can be recognised by string (or digest) comparison:
    it is the key of the content-addressed {!Tsg_engine.Cache}. *)

val canonical_form : t -> string
(** A canonical text rendering: events (with their classes) sorted,
    then arcs (source, target, delay, marking, disengageability)
    sorted.  Delays are written as hexadecimal float literals, so the
    rendering is exact and [0.]/[-0.] coincide.  Two graphs have equal
    canonical forms iff they have the same event set and the same arc
    multiset, regardless of declaration order. *)

val digest : t -> string
(** The MD5 of {!canonical_form} in lowercase hex — a 32-character
    stable content address for the graph. *)

val pp : t Fmt.t
(** A readable multi-line dump of the graph. *)
