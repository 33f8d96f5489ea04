open Tsg_obs.Json

let ok fields = to_string (Obj (("status", String "ok") :: fields))

let analyze_response ~model g report =
  ok
    [
      ("model", String model);
      ("events", Int (Tsg.Signal_graph.event_count g));
      ("arcs", Int (Tsg.Signal_graph.arc_count g));
      ("report", Json_report.analysis_obj g report);
    ]

let batch_response entries =
  let items, summary = Json_report.batch_items entries in
  ok [ ("items", items); ("summary", summary) ]

let cache_stats_obj (s : Tsg_engine.Cache.stats) =
  Obj
    [
      ("capacity", Int s.Tsg_engine.Cache.capacity);
      ("length", Int s.Tsg_engine.Cache.length);
      ("hits", Int s.Tsg_engine.Cache.hits);
      ("misses", Int s.Tsg_engine.Cache.misses);
      ("evictions", Int s.Tsg_engine.Cache.evictions);
    ]

let disk_cache_stats_obj (s : Tsg_engine.Disk_cache.stats) =
  Obj
    [
      ("dir", String s.Tsg_engine.Disk_cache.dir);
      ("capacity", Int s.Tsg_engine.Disk_cache.capacity);
      ("length", Int s.Tsg_engine.Disk_cache.length);
      ("hits", Int s.Tsg_engine.Disk_cache.hits);
      ("misses", Int s.Tsg_engine.Disk_cache.misses);
      ("writes", Int s.Tsg_engine.Disk_cache.writes);
      ("evictions", Int s.Tsg_engine.Disk_cache.evictions);
      ("corrupt", Int s.Tsg_engine.Disk_cache.corrupt);
      ("dropped", Int s.Tsg_engine.Disk_cache.dropped);
      ("stale_served", Int s.Tsg_engine.Disk_cache.stale_served);
      ("oldest_age_s", Float s.Tsg_engine.Disk_cache.oldest_age_s);
    ]

let shard_stats_obj (s : Tsg_engine.Router.shard_stats) =
  Obj
    [
      ("endpoint", String s.Tsg_engine.Router.endpoint);
      ("healthy", Bool s.Tsg_engine.Router.healthy);
      ("inflight", Int s.Tsg_engine.Router.inflight);
      ("served", Int s.Tsg_engine.Router.served);
      ("failed", Int s.Tsg_engine.Router.failed);
    ]

let proxy_stats_obj (p : Tsg_engine.Proxy.stats) (r : Tsg_engine.Router.router_stats)
    =
  Obj
    [
      ("requests", Int p.Tsg_engine.Proxy.requests);
      ("retries", Int p.Tsg_engine.Proxy.retries);
      ("shed", Int p.Tsg_engine.Proxy.shed);
      ("degraded", Int p.Tsg_engine.Proxy.degraded);
      ("degraded_miss", Int p.Tsg_engine.Proxy.degraded_miss);
      ("queue_dropped", Int p.Tsg_engine.Proxy.queue_dropped);
      ("queue_expired", Int p.Tsg_engine.Proxy.queue_expired);
      ("breaker_trips", Int p.Tsg_engine.Proxy.breaker_trips);
      ("budget_balance", Float p.Tsg_engine.Proxy.budget_balance);
      ("active", Int p.Tsg_engine.Proxy.active);
      ("queued", Int p.Tsg_engine.Proxy.queued);
      ( "breakers",
        List (List.map (fun s -> String s) p.Tsg_engine.Proxy.breakers) );
      ("shards", List (List.map shard_stats_obj r.Tsg_engine.Router.shards));
    ]

let stats_response ?cache ?disk_cache ?transport ?shard ?proxy () =
  ok
    (("protocol", String Tsg_engine.Protocol.version)
    :: (match transport with
       | Some tr -> [ ("transport", String tr) ]
       | None -> [])
    @ (match shard with Some sh -> [ ("shard", String sh) ] | None -> [])
    @ ("metrics", Json_report.metrics_obj ())
      :: ("latency", Json_report.histograms_obj ())
      :: (match cache with Some s -> [ ("cache", cache_stats_obj s) ] | None -> [])
    @ (match disk_cache with
      | Some s -> [ ("disk_cache", disk_cache_stats_obj s) ]
      | None -> [])
    @
    match proxy with
    | Some (p, r) -> [ ("proxy", proxy_stats_obj p r) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

type sweep_item = {
  edits : Tsg_engine.Protocol.sweep_edit list;
  elapsed_ms : float;
  outcome : (Tsg.Cycle_time.report * Tsg.Whatif.stats, string) result;
}

let whatif_path = function
  | Tsg.Whatif.Short_circuit -> "short_circuit"
  | Tsg.Whatif.Warm -> "warm"
  | Tsg.Whatif.Cold -> "cold"

(* echo each edit in its wire shape; delay edits keep the bare
   tsa-rpc/3 form so v3 clients parse v4 delay sweeps unchanged *)
let edits_json edits =
  let ev = function
    | Tsg_engine.Protocol.Ev_id i -> Int i
    | Tsg_engine.Protocol.Ev_name n -> String n
  in
  List
    (List.map
       (function
         | Tsg_engine.Protocol.Sw_delay { sw_arc; sw_delta } ->
           Obj [ ("arc", Int sw_arc); ("delta", Float sw_delta) ]
         | Tsg_engine.Protocol.Sw_add { sw_src; sw_dst; sw_delay; sw_marked } ->
           Obj
             [
               ("op", String "add");
               ("src", ev sw_src);
               ("dst", ev sw_dst);
               ("delay", Float sw_delay);
               ("marked", Bool sw_marked);
             ]
         | Tsg_engine.Protocol.Sw_remove arc ->
           Obj [ ("op", String "remove"); ("arc", Int arc) ]
         | Tsg_engine.Protocol.Sw_mark { sw_arc; sw_marked } ->
           Obj [ ("op", String "mark"); ("arc", Int sw_arc); ("marked", Bool sw_marked) ])
       edits)

let sweep_response ~model g items =
  let item_json it =
    match it.outcome with
    | Ok (report, stats) ->
      Obj
        [
          ("status", String "ok");
          ("edits", edits_json it.edits);
          ("elapsed_ms", Float it.elapsed_ms);
          ("path", String (whatif_path stats.Tsg.Whatif.path));
          ("reused", Int stats.Tsg.Whatif.reused);
          ("resimulated", Int stats.Tsg.Whatif.resimulated);
          ("cycle_time", Float report.Tsg.Cycle_time.cycle_time);
          ("report", Json_report.analysis_obj g report);
        ]
    | Error msg ->
      Obj
        [
          ("status", String "error");
          ("edits", edits_json it.edits);
          ("elapsed_ms", Float it.elapsed_ms);
          ("error", String msg);
        ]
  in
  let ok_count, failed, reused, resimulated, short_circuits =
    List.fold_left
      (fun (okc, fl, ru, rs, sc) it ->
        match it.outcome with
        | Ok (_, stats) ->
          ( okc + 1,
            fl,
            ru + stats.Tsg.Whatif.reused,
            rs + stats.Tsg.Whatif.resimulated,
            sc + if stats.Tsg.Whatif.path = Tsg.Whatif.Short_circuit then 1 else 0 )
        | Error _ -> (okc, fl + 1, ru, rs, sc))
      (0, 0, 0, 0, 0) items
  in
  ok
    [
      ("model", String model);
      ("events", Int (Tsg.Signal_graph.event_count g));
      ("arcs", Int (Tsg.Signal_graph.arc_count g));
      ("items", List (List.map item_json items));
      ( "summary",
        Obj
          [
            ("total", Int (List.length items));
            ("ok", Int ok_count);
            ("failed", Int failed);
            ("reused", Int reused);
            ("resimulated", Int resimulated);
            ("short_circuits", Int short_circuits);
          ] );
    ]

let shutdown_response () = ok [ ("stopping", Bool true) ]
