(** Named failpoints: fault injection for resilience testing.

    Production code marks interesting sites with {!hit}
    ([Failpoint.hit "pool/job"]); nothing happens unless a test or the
    [TSA_FAILPOINTS] environment variable has armed that name, in
    which case the site sleeps, raises {!Injected}, or both.  The disarmed cost is one atomic load per
    site, so failpoints stay compiled into release binaries.

    Spec grammar (env var and {!configure}):
    ["name=fail;other=delay:50;third=delay:10,fail*2"] — per point a
    comma-separated action list ([fail], [delay:<ms>]) and an optional
    [*N] count after which the point disarms itself.

    Every fired hit bumps an internal counter ({!hits}), emits a
    [failpoint/hit] trace instant, and calls the {!on_hit} hook (the
    engine's [Metrics] wires this to its [failpoint/hits] counter). *)

exception Injected of string
(** Raised by {!hit} at an armed site; the payload is the failpoint
    name. *)

val hit : string -> unit
(** [hit name] fires the failpoint: no-op when disarmed, otherwise
    sleep [delay_ms] and/or raise [Injected name]. *)

val is_active : string -> bool
(** Whether [name] is armed with at least one firing left.  For sites
    that need to inject a {e specific} exception (e.g. a
    [Unix.Unix_error]) rather than {!Injected}: guard the raise with
    [is_active]. *)

val activate : ?delay_ms:float -> ?fail:bool -> ?times:int -> string -> unit
(** Arm [name]: sleep [delay_ms] (default 0) then raise when [fail]
    (default [true]), for [times] firings (default [-1] = forever). *)

val deactivate : string -> unit
(** Disarm [name] (no-op when not armed). *)

val clear : unit -> unit
(** Disarm everything. *)

val configure : string -> unit
(** Arm from a spec string (grammar above).
    @raise Invalid_argument on a malformed spec. *)

val hits : unit -> int
(** Total fired hits since process start. *)

val on_hit : (string -> unit) -> unit
(** Install the (single) hook called with the failpoint name on every
    fired hit. *)
