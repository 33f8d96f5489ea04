type sample = { period : int; time : float; average : float }
type border_trace = { border_event : int; samples : sample list }

type report = {
  cycle_time : float;
  critical_event : int;
  critical_period : int;
  critical_walk : int list;
  critical_cycles : Cycles.cycle list;
  border : int list;
  periods_simulated : int;
  traces : border_trace list;
}

exception Not_analyzable of string

let ratio_tolerance = 1e-9

(* the per-border-event work item: read the Delta samples straight out
   of the kernel's arena (the view is only valid inside this callback,
   so only the samples themselves are allocated per border event) *)
let trace_of_times time_of u periods g0 =
  let samples =
    List.init periods (fun k ->
        let period = k + 1 in
        let time = time_of (Unfolding.instance u ~event:g0 ~period) in
        { period; time; average = time /. float_of_int period })
  in
  { border_event = g0; samples }

let trace_of u periods g0 view =
  trace_of_times (Timing_sim.view_time view) u periods g0

(* the (event, period, average) triple realising the maximum Delta; the
   fold order — traces in border order, samples in period order, later
   samples must strictly improve — fixes which tie wins, so the warm
   re-analysis of Whatif reuses this exact fold to stay byte-identical *)
let best_of_traces traces =
  List.fold_left
    (fun acc trace ->
      List.fold_left
        (fun acc s ->
          match acc with
          | Some (_, _, best_avg) when best_avg >= s.average -> acc
          | _ -> Some (trace.border_event, s.period, s.average))
        acc trace.samples)
    None traces

(* backtracking and report assembly, shared by [analyze] (cold) and
   [Whatif] (warm): [g] is the graph the critical cycles are
   decomposed against — the edited graph on the warm path, where [u]
   is its patched unfolding.  The backtrack reads the ambient
   deadline. *)
let finish g u ~border ~periods ~traces =
  match best_of_traces traces with
  | None -> raise (Not_analyzable "no average occurrence distance was collected")
  | Some (critical_event, critical_period, cycle_time) ->
    Tsg_obs.Trace.with_span "backtrack" @@ fun () ->
    Tsg_engine.Metrics.time "analyze/backtrack" @@ fun () ->
    (* backtrack the longest path that realised the maximum; the
       samples were read out of recycled arenas, so re-run the one
       critical simulation (1/b of the simulate phase) and walk its
       predecessors inside the arena *)
    let path =
      Timing_sim.backtrack u
        ~at:(Unfolding.instance u ~event:critical_event ~period:0)
        ~instance:(Unfolding.instance u ~event:critical_event ~period:critical_period)
    in
    let critical_walk = List.filter_map snd path in
    let decomposition = Cycles.decompose_closed_walk g critical_walk in
    let best_ratio =
      List.fold_left (fun acc c -> max acc (Cycles.effective_length c)) neg_infinity
        decomposition
    in
    let critical_cycles =
      List.filter
        (fun c ->
          Cycles.effective_length c
          >= best_ratio -. (ratio_tolerance *. (1. +. abs_float best_ratio)))
        decomposition
    in
    {
      cycle_time;
      critical_event;
      critical_period;
      critical_walk;
      critical_cycles;
      border;
      periods_simulated = periods;
      traces;
    }

let analyze ?periods ?(jobs = 1) g =
  (* the ambient deadline is the only budget: Batch, the daemon and
     the CLI arm it around the whole job, and every phase below reads
     the same one *)
  let deadline = Tsg_engine.Deadline.current () in
  let args =
    if Tsg_obs.Trace.enabled () then
      [
        ("events", string_of_int (Signal_graph.event_count g));
        ("arcs", string_of_int (Signal_graph.arc_count g));
        ("jobs", string_of_int jobs);
      ]
    else []
  in
  Tsg_obs.Trace.with_span "analyze" ~args @@ fun () ->
  Tsg_engine.Metrics.time_hist "analyze/ms" @@ fun () ->
  Tsg_engine.Metrics.incr "analyze/graphs";
  if Signal_graph.repetitive_count g = 0 then
    raise (Not_analyzable "the graph has no repetitive events");
  let border = Tsg_obs.Trace.with_span "border" (fun () -> Cut_set.border g) in
  let b = List.length border in
  if b = 0 then
    raise (Not_analyzable "the graph has no border events (no initial activity)");
  let periods = match periods with Some p -> max 1 p | None -> b in
  (* instances g_0 .. g_periods are needed, hence periods+1 layers *)
  let u =
    Tsg_obs.Trace.with_span "unfold" @@ fun () ->
    Tsg_engine.Metrics.time "analyze/unfold" @@ fun () ->
    let u = Unfolding.make g ~periods:(periods + 1) in
    Tsg_engine.Deadline.check deadline;
    u
  in
  let traces =
    Tsg_obs.Trace.with_span "simulate" ~args:[ ("border_events", string_of_int b) ]
    @@ fun () ->
    Tsg_engine.Metrics.time "analyze/simulate" @@ fun () ->
    let roots =
      Array.map
        (fun g0 -> Unfolding.instance u ~event:g0 ~period:0)
        (Array.of_list border)
    in
    Array.to_list
      (Timing_sim.simulate_many ~jobs u ~roots ~f:(fun at view ->
           let g0, _ = Unfolding.event_of_instance u at in
           trace_of u periods g0 view))
  in
  finish g u ~border ~periods ~traces

module Internal = struct
  let trace_of_times = trace_of_times
  let best_of_traces = best_of_traces
  let finish = finish
end

let cycle_time ?periods ?jobs g = (analyze ?periods ?jobs g).cycle_time

let check_walk g report =
  let closed =
    match report.critical_walk with
    | [] -> false
    | arc_ids -> (
      try
        let c = Cycles.of_arc_ids g arc_ids in
        c.Cycles.occurrence_period > 0
      with Invalid_argument _ -> false)
  in
  let tol = ratio_tolerance *. (1. +. abs_float report.cycle_time) in
  let walk_ratio_ok =
    closed
    &&
    let c = Cycles.of_arc_ids g report.critical_walk in
    abs_float (Cycles.effective_length c -. report.cycle_time) <= tol
  in
  let cycles_ok =
    report.critical_cycles <> []
    && List.for_all
         (fun c ->
           abs_float (Cycles.effective_length c -. report.cycle_time) <= tol)
         report.critical_cycles
  in
  walk_ratio_ok && cycles_ok
