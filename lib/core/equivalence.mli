(** Timing equivalence of Timed Signal Graphs.

    Two graphs over the same events are {e timing-equal} when every
    instance of every event occurs at the same time in both — the
    graphs are indistinguishable to any observer of the timed
    behaviour, even if their arc structure differs (e.g. one carries a
    redundant, always-dominated arc).

    The check compares the timing simulations of both unfoldings over
    a finite horizon and then verifies that both have entered periodic
    regimes with the same pattern; by quasi-periodicity (Section IV.D
    of the paper) agreement on the transient plus one full pattern
    implies agreement forever. *)

type verdict =
  | Equal
  | Different_events  (** the event sets or classes differ *)
  | Different_time of { event : int; period : int; left : float; right : float }
      (** the first instance (in the left graph's numbering) where the
          occurrence times diverge *)
  | No_steady_state
      (** a periodic regime was not reached within the horizon —
          enlarge [periods] *)

val compare : ?periods:int -> Signal_graph.t -> Signal_graph.t -> verdict
(** [compare g1 g2] with a horizon of [periods] (default: twice the
    larger border-set size plus eight). *)

val timing_equal : ?periods:int -> Signal_graph.t -> Signal_graph.t -> bool
(** [compare] reduced to a boolean ([Equal] only). *)
