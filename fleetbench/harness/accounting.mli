(** Per-request outcome accounting, shared by the client threads.

    Every request sent counts as attempted; it either completes with a
    latency sample or fails.  A transport error and an error reply
    (the fleet refusing or shedding the request) both count as
    failures, and failures contribute no latency sample. *)

type t

val create : unit -> t

val answered : t -> float -> unit
(** Record one completed request and its latency in milliseconds. *)

val failed : t -> string -> unit
(** Record one failed request with a human-readable reason (the first
    few reasons are kept for the report). *)

val attempted : t -> int
val failures : t -> int
val completed : t -> int

val latencies_ms : t -> float list
(** Latency samples in completion order. *)

val failure_reasons : t -> string list
val error_rate : t -> float
(** [failures / attempted], [0.] before any request. *)

val classify : string -> (string, string) result
(** [Ok payload] for a ["status":"ok"] reply — with a proxy
    [degraded] marker stripped — and [Error excerpt] for anything
    else. *)
