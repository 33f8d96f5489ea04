(** Longest- and shortest-path computations.

    Used by the timing-simulation core (longest paths in the acyclic
    unfolding, Proposition 1 of the paper) and by the Lawler baseline
    (positive-cycle detection under reweighted arcs). *)

val dag_longest :
  'a Digraph.t -> weight:('a -> float) -> sources:int list ->
  float array * int array
(** [dag_longest g ~weight ~sources] computes, for every vertex, the
    maximum total weight of a path from any source, along with an
    argmax-predecessor array for path reconstruction.

    Returns [(dist, pred)]: [dist.(v)] is the longest distance
    ([neg_infinity] if unreachable, [0.] for sources), and [pred.(v)]
    is the predecessor of [v] on one maximal path ([-1] for sources
    and unreachable vertices).  Sources start at distance [0.] even if
    they have in-arcs from reachable vertices (their in-arcs are
    ignored), matching the semantics of event-initiated timing
    simulation.

    @raise Invalid_argument if [g] is not acyclic. *)

type cycle_check =
  | No_positive_cycle of float array
      (** Longest distances from the sources (finite vertices only). *)
  | Positive_cycle of int list
      (** A witness cycle [v0; v1; ...; v0] of strictly positive total
          weight. *)

val bellman_ford_longest :
  ?tolerance:float ->
  'a Digraph.t ->
  weight:('a -> float) ->
  sources:int list ->
  cycle_check
(** Longest paths from [sources] with positive-cycle detection
    (Bellman-Ford on negated weights).  If some cycle reachable from
    the sources has strictly positive total weight, a witness is
    returned; otherwise the distance array.

    [tolerance] (default [1e-12]) is the minimum improvement counted
    as a relaxation: cycles whose total weight is within the tolerance
    of zero are treated as zero-weight rather than positive.  Callers
    that reweight arcs by a floating-point [lambda] (so that critical
    cycles have weight numerically-almost-zero) should pass a
    tolerance above their rounding noise. *)

val walk_from_pred : pred:int array -> int -> int list
(** [walk_from_pred ~pred v] follows the predecessor chain from [v]
    back to a root (pred = -1) and returns the path root-first. *)
