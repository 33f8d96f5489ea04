(** The [tsa bench] regression harness: the per-model timing passes,
    the two what-if workloads and the two serving drills, collected
    into one typed {!snapshot} whose only JSON spelling is {!to_json}
    (schema [tsa-bench/7]). *)

type phases = { load : float; unfold : float; simulate : float; backtrack : float }
(** Mean wall milliseconds per phase.  [load] is parsing (generation
    for a built-in); the other three are read back from
    {!Tsg_engine.Metrics}, reset before every iteration. *)

type level = { jobs : int; simulate_ms : float; total_ms : float }
(** One jobs-scaling level: simulate-phase and total means. *)

type model = {
  name : string; events : int; arcs : int; border : int; cycle_time : float;
  total_mean_ms : float; total_min_ms : float; phases : phases;
  scaling : level list;  (** the [jobs = 1] level is the primary pass *)
}

type entry = { file : string; outcome : (model, [ `Error of string | `Not_applicable of string ]) result }
(** A benchmarked model.  [`Not_applicable] is a model the algorithm
    does not apply to ({!Tsg.Cycle_time.Not_analyzable}), not a
    failure. *)

type whatif = {
  scenarios : int; prepare_ms : float;
  cold_ms : float;  (** independent cold analyses of every scenario *)
  warm_ms : float;  (** {!Tsg.Whatif.sweep_changes} over the prepared base *)
  reused : int; resimulated : int; warm_paths : int; spliced : int; dropped : int;
}
(** A what-if workload on [gen-dense] at [jobs = 1].  Only runs whose
    warm reports serialize byte-identically to the cold ones are
    recorded. *)

type drill = {
  requests : int; client_threads : int; replicas : int;
  base_ms : float;  (** the baseline pass *)
  test_ms : float;  (** the pass under test *)
  failed : int;  (** over both passes *)
  identical : bool;  (** analyze responses equal across the passes *)
}
(** A serving drill: one fixed mixed analyze/sweep request set sent
    twice from client threads to fresh {!Tsg_io.Fleet}s. *)

type snapshot = {
  date : string;  (** UTC, [yyyy-mm-dd] *)
  iterations : int; cores : int; jobs_levels : int list;
  benchmarks : entry list;
  whatif_sweep : whatif option;  (** [None]: skipped *)
  whatif_structural : whatif option;
  fleet_load : (drill, string) result option;  (** 1 vs 3 replicas *)
  proxy_load : (drill, string) result option;  (** direct router vs [tsa proxy] *)
}

val default_models : unit -> string list option
(** [benchmarks/*.g] under the current directory, sorted, then the
    built-ins [gen-dense], [gen-10k] and [gen-10k-file] (gen-10k
    exported to a temporary [.g] and read back, so its [load] is the
    parser); [None] without a [benchmarks/] directory. *)

val run : exe:string -> iterations:int -> ?only:string list -> string list -> (snapshot, string) result
(** [run ~exe ~iterations models] benchmarks every model, then runs
    the composite workloads [whatif_sweep], [whatif_structural],
    [fleet_load] and [proxy_load]; the drills spawn their fleets from
    [exe].  [only] keeps the models whose path, basename or basename
    without extension it names, and the workloads it names; the rest
    are skipped.  [Error] when a what-if workload's warm and cold
    reports differ or one of its scenarios fails: such a snapshot is
    worthless.  A drill that cannot run (no subprocesses, no loopback)
    is recorded as an error instead. *)

val to_json : snapshot -> string
(** The [tsa-bench/7] document, one line.  The [whatif_structural] and
    drill entries read [status: "single_core"] on one core, where
    their speedups mean nothing. *)
