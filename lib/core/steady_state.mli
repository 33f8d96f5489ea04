(** Detection of the eventually-periodic regime of a timing simulation
    (Section IV.D of the paper).

    Every cyclic Signal-Graph process is quasi-periodic: after a finite
    transient, the occurrence times of every repetitive event advance
    by a fixed increment over a fixed number of unfolding periods.
    This module finds that pattern from a finite simulation: the
    smallest [pattern_period] K and transient length such that

    {v t(e_(i+K)) - t(e_i) = K * lambda    for all repetitive e, i >= transient v}

    For the Fig. 1 oscillator: K = 1 after 1 period; for the five-stage
    Muller ring: K = 3 (the 6, 7, 7 delta pattern).  The increment
    divided by K is the cycle time — an independent way of obtaining
    [lambda] that the test suite cross-checks against
    {!Cycle_time.analyze}. *)

type t = {
  pattern_period : int;  (** K: unfolding periods per repetition *)
  transient_periods : int;  (** periods before the pattern locks in *)
  increment : float;  (** time advance per pattern = K * lambda *)
  lambda : float;  (** increment / K *)
}

val detect : ?max_periods:int -> Signal_graph.t -> t option
(** [detect g] is [search (simulate ?max_periods g)].  [None] if no
    pattern fits within the horizon — increase [max_periods].
    @raise Cycle_time.Not_analyzable on a graph without repetitive
    events. *)

val simulate : ?max_periods:int -> Signal_graph.t -> (int * float array) list
(** {!times} of a plain simulation over [max_periods] periods (default
    [4 * b + 8] where [b] is the border-set size).
    @raise Cycle_time.Not_analyzable as {!detect}. *)

val times : Unfolding.t -> Timing_sim.result -> (int * float array) list
(** Each repetitive event's {!Timing_sim.occurrence_times}, in event
    order. *)

val search : (int * float array) list -> t option
(** The smallest (pattern, transient) pair, searched for purely over
    the times; the horizon is their length. *)
