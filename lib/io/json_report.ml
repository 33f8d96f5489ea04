open Tsg
open Tsg_obs.Json

(* ------------------------------------------------------------------ *)
(* Encoders                                                            *)

let event_name g e = String (Event.to_string (Signal_graph.event g e))

let cycle g (c : Cycles.cycle) =
  Obj
    [
      ("events", List (List.map (event_name g) c.Cycles.events));
      ("arc_ids", List (List.map (fun i -> Int i) c.Cycles.arc_ids));
      ("length", Float c.Cycles.length);
      ("occurrence_period", Int c.Cycles.occurrence_period);
      ("effective_length", Float (Cycles.effective_length c));
    ]

let metrics_obj () =
  List
    (List.map
       (fun (e : Tsg_engine.Metrics.entry) ->
         Obj
           [
             ("name", String e.Tsg_engine.Metrics.name);
             ("count", Int e.Tsg_engine.Metrics.count);
             ("total_ms", Float e.Tsg_engine.Metrics.total_ms);
           ])
       (Tsg_engine.Metrics.snapshot ()))

let metrics () = to_string (Obj [ ("metrics", metrics_obj ()) ])

(* latency histograms: JSON has no NaN, so empty-histogram statistics
   render as null *)
let histogram_obj name (s : Tsg_obs.Histogram.snapshot) =
  let module H = Tsg_obs.Histogram in
  let opt_float f = if Float.is_nan f then Null else Float f in
  let pct p = opt_float (H.percentile s p) in
  let buckets =
    List.filteri (fun i _ -> s.H.counts.(i) > 0)
      (Array.to_list
         (Array.init (Array.length s.H.counts) (fun i ->
              Obj
                [
                  ( "le_ms",
                    if i < Array.length s.H.bounds then Float s.H.bounds.(i) else Null );
                  ("count", Int s.H.counts.(i));
                ])))
  in
  Obj
    [
      ("name", String name);
      ("count", Int s.H.count);
      ("mean_ms", opt_float (H.mean s));
      ("min_ms", opt_float s.H.min);
      ("max_ms", opt_float s.H.max);
      ("p50_ms", pct 50.);
      ("p95_ms", pct 95.);
      ("p99_ms", pct 99.);
      ("buckets", List buckets);
    ]

let histograms_obj () =
  List (List.map (fun (name, s) -> histogram_obj name s) (Tsg_engine.Metrics.histograms ()))

(* the b x b sample table is the bulk of every report: written straight
   into the output buffer, without a value per sample *)
let samples (ss : Cycle_time.sample list) =
  Writer
    (fun buf ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i (s : Cycle_time.sample) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf {|{"period":|};
          write buf (Int s.Cycle_time.period);
          Buffer.add_string buf {|,"time":|};
          write buf (Float s.Cycle_time.time);
          Buffer.add_string buf {|,"average":|};
          write buf (Float s.Cycle_time.average);
          Buffer.add_char buf '}')
        ss;
      Buffer.add_char buf ']')

let analysis_fields g (r : Cycle_time.report) =
  [
    ("cycle_time", Float r.Cycle_time.cycle_time);
    ("border", List (List.map (event_name g) r.Cycle_time.border));
    ("periods", Int r.Cycle_time.periods_simulated);
    ( "critical",
      Obj
        [
          ("event", event_name g r.Cycle_time.critical_event);
          ("period", Int r.Cycle_time.critical_period);
          ("cycles", List (List.map (cycle g) r.Cycle_time.critical_cycles));
        ] );
    ( "traces",
      List
        (List.map
           (fun (t : Cycle_time.border_trace) ->
             Obj
               [
                 ("event", event_name g t.Cycle_time.border_event);
                 ("samples", samples t.Cycle_time.samples);
               ])
           r.Cycle_time.traces) );
  ]

let analysis_obj g r = Obj (analysis_fields g r)

let analysis g r =
  to_string (Obj (analysis_fields g r @ [ ("metrics", metrics_obj ()) ]))

let batch_items (entries : (string * Signal_graph.t * Cycle_time.report) Tsg_engine.Batch.entry list) =
  let item (e : _ Tsg_engine.Batch.entry) =
    let common =
      [
        ("file", String e.Tsg_engine.Batch.label);
        ("elapsed_ms", Float e.Tsg_engine.Batch.elapsed_ms);
      ]
    in
    match e.Tsg_engine.Batch.outcome with
    | Ok (model, g, r) ->
      Obj
        (common
        @ [
            ("status", String "ok");
            ("model", String model);
            ("events", Int (Signal_graph.event_count g));
            ("arcs", Int (Signal_graph.arc_count g));
            ("cycle_time", Float r.Cycle_time.cycle_time);
            ("border", List (List.map (event_name g) r.Cycle_time.border));
            ("periods", Int r.Cycle_time.periods_simulated);
            ("critical_cycles", List (List.map (cycle g) r.Cycle_time.critical_cycles));
          ])
    | Error msg -> Obj (common @ [ ("status", String "error"); ("error", String msg) ])
  in
  let failed =
    List.length
      (List.filter (fun e -> Result.is_error e.Tsg_engine.Batch.outcome) entries)
  in
  ( List (List.map item entries),
    Obj
      [
        ("total", Int (List.length entries));
        ("succeeded", Int (List.length entries - failed));
        ("failed", Int failed);
      ] )

let batch entries =
  let items, summary = batch_items entries in
  to_string
    (Obj [ ("items", items); ("summary", summary); ("metrics", metrics_obj ()) ])

let slack g (r : Slack.report) =
  to_string
    (Obj
       [
         ("cycle_time", Float r.Slack.lambda);
         ( "arcs",
           List
             (Array.to_list
                (Array.map
                   (fun (s : Slack.arc_slack) ->
                     let a = Signal_graph.arc g s.Slack.arc_id in
                     Obj
                       [
                         ("id", Int s.Slack.arc_id);
                         ("src", event_name g a.Signal_graph.arc_src);
                         ("dst", event_name g a.Signal_graph.arc_dst);
                         ("delay", Float a.Signal_graph.delay);
                         ("marked", Bool a.Signal_graph.marked);
                         ( "slack",
                           if s.Slack.slack = infinity then Null else Float s.Slack.slack );
                         ("critical", Bool s.Slack.on_critical_cycle);
                       ])
                   r.Slack.arc_slacks)) );
       ])
