(** The max-plus view of a Timed Signal Graph.

    [A] is built from the token graph over the (max, +) semiring:
    entry [A_{hg}] is the longest token-free path from border event
    [g] through one marked arc into border event [h].  The max-plus
    spectral radius of [A] is the cycle time, and the cyclicity of its
    power iteration is the pattern period of the steady-state regime —
    both cross-checked in the test suite against {!Tsg.Cycle_time} and
    {!Tsg.Steady_state}.

    [A]'s powers are not the border occurrence times themselves: the
    recurrence [x(k+1) = A (X) x(k)] leaves out same-period
    border-to-border paths through unmarked arcs (such as [ia- -> e-]
    in the five-stage Muller ring), so it can under-estimate them.  On
    that ring, from [e-] at period 3, [A]'s powers give 19 where the
    timing simulation gives 20.  Its maximum cycle mean and cyclicity
    are unaffected. *)

val matrix : Tsg.Signal_graph.t -> Matrix.t * int array
(** [(a, border)] where [a] is the border-event recurrence matrix and
    [border.(i)] the Signal-Graph event id of index [i].
    @raise Invalid_argument if the graph has no border events. *)

val cycle_time : Tsg.Signal_graph.t -> float
(** The cycle time via the max-plus spectral radius — a further
    independent baseline for the paper's algorithm. *)

val regime : ?max_iter:int -> Tsg.Signal_graph.t -> Spectral.regime option
(** The periodic regime of the border recurrence started from the
    all-zeros vector (every border event nominally released at time
    0). *)
