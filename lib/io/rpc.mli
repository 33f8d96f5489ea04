(** Response encoders for the [tsa serve] wire protocol.

    Requests are parsed by {!Tsg_engine.Protocol} (the engine cannot
    see this library); responses are rendered here, one JSON object
    per line.  Every response carries a ["status"] field — ["ok"] or
    ["error"] — so clients dispatch on one key:

    {v {"status":"ok","model":"fig1","events":8,"arcs":11,
 "report":{"cycle_time":10,"border":[...],...}}
{"status":"error","error":"fig1.g: no such file"}
{"status":"ok","items":[...],"summary":{...}}          (batch)
{"status":"ok","metrics":[...],"latency":[...],
 "cache":{...}}                                        (stats)
{"status":"ok","stopping":true}                        (shutdown) v}

    {!analyze_response} is a pure function of its arguments — no
    timestamps, no metrics snapshot — so a cached analysis renders to
    a byte-identical response on every hit. *)

val analyze_response : model:string -> Tsg.Signal_graph.t -> Tsg.Cycle_time.report -> string
(** [{"status":"ok","model":...,"events":...,"arcs":...,"report":{...}}]
    where [report] is {!Json_report.analysis_obj} (cycle time, border,
    periods, critical cycle, per-border traces — no volatile
    fields). *)

val batch_response :
  (string * Tsg.Signal_graph.t * Tsg.Cycle_time.report) Tsg_engine.Batch.entry list ->
  string
(** [{"status":"ok","items":[...],"summary":{...}}] with the items and
    summary of {!Json_report.batch_items}: per-item [status], model
    size, cycle time and critical cycles, or the item's error. *)

val stats_response :
  ?cache:Tsg_engine.Cache.stats ->
  ?disk_cache:Tsg_engine.Disk_cache.stats ->
  ?transport:string ->
  ?shard:string ->
  ?proxy:Tsg_engine.Proxy.stats * Tsg_engine.Router.router_stats ->
  unit ->
  string
(** [{"status":"ok","protocol":"tsa-rpc/5","transport":"tcp",
    "shard":"127.0.0.1:7601","metrics":[...],"latency":[...],
    "cache":{...},"disk_cache":{...},"proxy":{...}}]: the protocol
    version ({!Tsg_engine.Protocol.version}); the serving transport
    (["unix"] or ["tcp"]) and this replica's shard identity (its
    bound endpoint) when serving; the current {!Tsg_engine.Metrics}
    snapshot; the latency histograms ({!Json_report.histograms_obj} —
    the daemon's [server/request_ms] series carries request
    p50/p95/p99); when given, each cache tier's occupancy and
    hit/miss/eviction counts ([disk_cache] additionally reports
    [writes], [corrupt], [dropped], [stale_served] and
    [oldest_age_s]); and, for [tsa proxy], the [proxy] block —
    breaker states, retry/shed/degraded counters, budget
    balance, queue occupancy and the embedded router's per-shard
    served/failed counts.  [transport]/[shard] let a fleet client
    tell its replicas apart from one [stats] broadcast. *)

type sweep_item = {
  edits : Tsg_engine.Protocol.sweep_edit list;  (** the scenario, as received *)
  elapsed_ms : float;
  outcome : (Tsg.Cycle_time.report * Tsg.Whatif.stats, string) result;
}
(** One sweep scenario's result, ready for {!sweep_response}. *)

val sweep_response : model:string -> Tsg.Signal_graph.t -> sweep_item list -> string
(** The [sweep] response: base-model identity, one item per scenario
    (each [ok] item embeds a full {!Json_report.analysis_obj} report —
    byte-identical to the [analyze] report of the edited graph — plus
    its warm-start path and reuse counts), and a summary with
    [reused]/[resimulated]/[short_circuits] totals.  Each item echoes
    its scenario's edits in their wire shape (delay edits keep the
    bare [{"arc":..,"delta":..}] form; structural edits carry their
    ["op"] tag).  Arc ids inside a structural item's report refer to
    the {e edited} graph; event names are stable.

    {v {"status":"ok","model":...,"events":...,"arcs":...,
 "items":[{"status":"ok","edits":[{"arc":0,"delta":1.5}],
           "elapsed_ms":...,"path":"warm","reused":...,
           "resimulated":...,"cycle_time":...,"report":{...}},
          {"status":"error","edits":[...],"elapsed_ms":...,
           "error":"..."}],
 "summary":{"total":...,"ok":...,"failed":...,"reused":...,
            "resimulated":...,"short_circuits":...}} v} *)

val shutdown_response : unit -> string
(** [{"status":"ok","stopping":true}]. *)

val cache_stats_obj : Tsg_engine.Cache.stats -> Tsg_obs.Json.t
(** The [{"capacity":...,"length":...,"hits":...,"misses":...,
    "evictions":...}] block used by {!stats_response}. *)
