(** Signal-Graph extraction from a net-list — the role played by the
    TRASPEC tool (FORCAGE 3.0) in the paper's flow (Section VIII.B).

    The extractor runs a maximal-step simulation of the circuit under
    speed-independent semantics, recording for every transition
    occurrence its {e conjunctive cause}: the most recent transitions
    of the inputs whose values are individually necessary for the
    excitation (AND-causality; a disjunctive excitation is a
    distributivity violation and aborts the extraction).  Once the
    cause pattern of every oscillating signal has stabilised, the
    pattern's occurrence offsets (0 or 1) become arc markings, pin
    delays become arc delays, and the pre-stable transient causes
    become the disengageable arcs and non-repetitive events of the
    initial part.  On the paper's circuits the result coincides with
    the hand-drawn graphs of Fig. 1b and Fig. 5 (verified in the test
    suite). *)

type extraction = {
  graph : Tsg.Signal_graph.t;
  verdict : Distributive.verdict option;
      (** the state-graph distributivity analysis; [None] if [check]
          was disabled *)
  rounds_used : int;  (** maximal steps simulated *)
  quiescent : bool;  (** the circuit stopped changing (no cycle time) *)
}

exception Extraction_error of string
(** Raised on distributivity violations, unstable cause patterns
    (increase [rounds]), non-safe markings, or quiescent circuits
    without any oscillation. *)

val extract :
  ?rounds:int ->
  ?check:bool ->
  ?max_states:int ->
  Tsg_circuit.Netlist.t ->
  extraction
(** [extract net] derives the Timed Signal Graph of [net].  [rounds]
    (default 60) bounds the maximal-step simulation; [check] (default
    [true]) additionally explores the interleaving state graph and
    verifies distributivity.  The ambient deadline
    ({!Tsg_engine.Deadline.current}) bounds the whole extraction,
    including the state-space exploration.
    @raise Extraction_error as described above.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)
