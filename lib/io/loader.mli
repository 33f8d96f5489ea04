(** Dialect-sniffing model loader.

    Two text formats are accepted: the native [.g] exchange format
    ({!Stg_format}) and the astg/petrify dialect ({!Astg_format}).
    The astg dialect is recognised by a [.marking] section; the sniff
    ignores comments, so a native file whose comments merely {e
    mention} [.marking] is not misclassified, and it is one scan of
    the text that allocates nothing. *)

type model = {
  name : string;  (** the [.model] name (or the given fallback) *)
  graph : Tsg.Signal_graph.t;
  dialect : [ `Native | `Astg ];
}

val is_astg : string -> bool
(** True when a [.marking] token occurs outside a [#] comment. *)

val of_string : ?name:string -> string -> (model, string) result
(** Parse a model from text; [name] (default ["input"]) labels error
    messages.  Never raises: arbitrary (including hostile) bytes come
    back as [Error] — inputs past the {!Validate} caps are refused
    before parsing, and any parser exception is rendered into the
    error message.  The one exception let through is
    {!Tsg_engine.Deadline.Deadline_exceeded}: the parser and the graph
    freeze check the ambient {!Tsg_engine.Deadline.current}, and an
    expired budget is the caller's timeout, not a bad model. *)

val load_file : string -> (model, string) result
(** Read and parse a file; I/O failures come back as [Error] rather
    than an exception. *)
