(** The [tsa bench] regression harness: the per-model timing passes
    and the two what-if workloads, collected into one typed {!snapshot}
    whose only JSON spelling is {!to_json} (schema [tsa-bench/9]).  The
    served path is timed by fleetbench, not here. *)

type phases = { load : float; unfold : float; simulate : float; backtrack : float; render : float }
(** Mean wall milliseconds per phase.  [load] is parsing (generation
    for a built-in); [unfold], [simulate] and [backtrack] are read
    back from {!Tsg_engine.Metrics}, reset before every iteration;
    [render] is {!Tsg_io.Rpc.analyze_response} of the report, timed
    after the analysis.  Neither [load] nor [render] is part of the
    model's total. *)

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

type snapshot = {
  date : string;  (** UTC, [yyyy-mm-dd] *)
  iterations : int; cores : int; jobs_levels : int list;
  benchmarks : entry list;
  whatif_sweep : whatif option;  (** [None]: skipped *)
  whatif_structural : whatif option;
}

val default_models : unit -> string list option
(** [benchmarks/*.g] under the current directory, sorted, then the
    built-ins [gen-dense], [muller-128], [gen-10k] and [gen-10k-file] (gen-10k
    exported to a temporary [.g] and read back, so its [load] is the
    parser); [None] without a [benchmarks/] directory. *)

val unknown : only:string list -> string list -> string list
(** [unknown ~only models] is the names in [only] that select neither
    one of [models] nor a composite workload ([whatif_sweep],
    [whatif_structural]), in order: a run filtered by them would time
    nothing they name. *)

val run : iterations:int -> ?only:string list -> string list -> (snapshot, string) result
(** [run ~iterations models] benchmarks every model, then runs the
    composite workloads [whatif_sweep] and [whatif_structural].
    [only] keeps the models whose path, basename or basename without
    extension it names, and the workloads it names; the rest are
    skipped.  [Error] when a what-if workload's warm and cold reports
    differ or one of its scenarios fails: such a snapshot is
    worthless. *)

val to_json : snapshot -> string
(** The [tsa-bench/9] document, one line.  The [whatif_structural]
    entry reads [status: "single_core"] on one core, where its speedup
    means nothing. *)
