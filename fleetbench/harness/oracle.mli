(** Checking served answers against independently computed oracles. *)

val rel_tol : float
(** The relative tolerance of cycle-time comparisons, [1e-9]. *)

val close : ?rel:float -> float -> float -> bool
(** [close a b] holds when [|a - b| <= rel * max |a| |b|]. *)

val report_cycle_times : string -> float list
(** The cycle time of every analysis report embedded in a reply, in
    order: one for an [analyze] reply, one per successful scenario of
    a [sweep] reply.  An unparsable figure reads as [nan] (which
    matches nothing). *)

val check_cycle_times : expected:float array -> string -> (unit, string) result
(** The reply's report cycle times, in order, each {!close} to
    [expected]; a missing or extra report is a mismatch. *)

val same_bytes : first:string -> string -> bool
(** Byte equality after stripping a proxy [degraded] marker from
    either side. *)
