(** Topological ordering of directed acyclic graphs. *)

val sort : 'a Digraph.t -> (int list, int list) result
(** [sort g] is [Ok order] with the vertices in a topological order
    (every arc goes from an earlier to a later list element) when [g]
    is acyclic, or [Error cycle_vertices] listing the vertices that lie
    on cycles (in increasing id order) otherwise.  Kahn's algorithm;
    ties are broken by smallest vertex id, so the order is canonical. *)

val sort_succ : check:(unit -> unit) -> int -> (int -> (int -> unit) -> unit) -> int array option
(** [sort_succ ~check n iter_succ] is {!sort} over the vertices
    [0 .. n-1] whose out-arcs [iter_succ v f] hands to [f] one
    successor at a time, for a caller that keeps its arcs in its own
    arrays.  [Some order] is the same canonical order {!sort} yields
    for the same arcs (the order does not depend on the order in which
    a vertex's successors are handed over), [None] when the graph has
    a cycle.  [check] is called once per 8192 emitted vertices, so a
    caller can abort a long sort by raising from it (a deadline check,
    say; [ignore] otherwise). *)

val is_dag : 'a Digraph.t -> bool
(** [true] iff the graph has no directed cycle. *)

val sort_exn : 'a Digraph.t -> int list
(** Like {!sort} but raises [Invalid_argument] on a cyclic graph. *)
