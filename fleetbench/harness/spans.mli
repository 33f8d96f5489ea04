(** An in-memory span store for the benchmark's traced run.

    Spans are recorded from the benchmark's own code, around its calls
    into each layer of the program, and kept in memory until the run
    ends.  A span names its parent; the root of a tree identifies the
    request (its [trace]).  Recording is thread-safe. *)

type span = private {
  id : int;
  parent : int option;
  trace : int;  (** the id of the root span of this request *)
  name : string;
  start_s : float;
  stop_s : float;  (** wall-clock seconds ([Unix.gettimeofday]) *)
}

type t

val create : unit -> t

val with_span : t -> ?parent:span -> string -> (span -> 'a) -> 'a
(** [with_span t ~parent name f] times [f] and records the span, also
    when [f] raises.  [f] receives the (still open) span, to pass as
    the parent of nested spans. *)

val add : t -> ?parent:span -> string -> start_s:float -> stop_s:float -> unit
(** Record an already-timed span. *)

val spans : t -> span list
(** Every recorded span, in completion order. *)

val covered : lo:float -> hi:float -> (float * float) list -> float
(** The length of the union of the intervals, clipped to [[lo, hi]]. *)

val self_times : t -> (string * int * float) list
(** Per span name: the number of spans and their summed self time in
    milliseconds — each span's duration minus the part of it that its
    children cover.  Sorted by name. *)

val to_chrome_json : t -> string
(** The spans as Chrome trace-event JSON. *)
