(** A plain-text exchange format for Timed Signal Graphs, in the
    spirit of the astg/[.g] format used by asynchronous-synthesis
    tools, extended with delays, initial markings and disengageable
    arcs:

    {v # a comment
.model fig1
.events
e- initial
f- nonrep
a+ rep
...
.graph
e- f- 3
e- a+ 2 once
c- a+ 2 token
...
.end v}

    Event classes are [initial], [nonrep] and [rep] (default [rep]).
    Arc lines are [src dst delay] optionally followed by [token]
    (initially marked) and/or [once] (disengageable).  Events may also
    be declared implicitly by their first use in [.graph], in which
    case they are repetitive.  An event's class is fixed where it first
    appears: a later [.events] line may repeat that class, but another
    one is an error ([line N: event a+ already declared as rep]).

    The parser reads the text in one pass, in time linear in its
    length, and checks the ambient {!Tsg_engine.Deadline.current} every
    8192 lines. *)

type document = { model : string; graph : Tsg.Signal_graph.t }

val parse : string -> (document, string) result
(** Parses a document from a string.  The error message carries a
    line number. *)

val parse_file : string -> (document, string) result

val to_string : ?model:string -> Tsg.Signal_graph.t -> string
(** Prints a graph in the format above.  [parse (to_string g)]
    reconstructs a graph identical to [g] (same events in the same
    order, same arcs). *)

val write_file : ?model:string -> string -> Tsg.Signal_graph.t -> unit
