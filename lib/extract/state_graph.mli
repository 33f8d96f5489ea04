(** Reachable-state exploration of a net-list under speed-independent
    semantics (unbounded gate delays): any excited gate may fire, one
    at a time.  This is the substrate of the distributivity check and
    of Signal-Graph extraction — our stand-in for the TRASPEC tool of
    reference [9] that the paper uses as its front end. *)

type state = {
  values : bool array;  (** node values, indexed like the net-list *)
  stim_done : bool array;  (** which time-0 stimuli have fired *)
}

type t = {
  netlist : Tsg_circuit.Netlist.t;
  states : state array;  (** reachable states, indexed by state id *)
  transitions : int Tsg_graph.Digraph.t;
      (** arcs between state ids, labelled by the index of the node
          that fired *)
  initial : int;  (** id of the initial state *)
}

exception State_limit of int
(** Raised when the exploration exceeds the state budget. *)

val excited : Tsg_circuit.Netlist.t -> state -> int list
(** The nodes that may fire in a state: gates whose excitation differs
    from their output, plus inputs with a pending stimulus. *)

val fire : Tsg_circuit.Netlist.t -> state -> int -> state
(** The successor state after the given node fires. *)

val explore : ?max_states:int -> Tsg_circuit.Netlist.t -> t
(** Full interleaving exploration from the initial state
    ([max_states] defaults to 100000).  The ambient deadline
    ({!Tsg_engine.Deadline.current}, read once) is checked at
    amortised intervals during the BFS — the state count bounds
    memory, the deadline bounds time.
    @raise State_limit if the state budget is exceeded.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the time budget. *)

val state_count : t -> int
