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

(* [g0]'s Delta table, [time_at i] being t_{g0}(g0_i) *)
let trace_of_periods periods g0 time_at =
  let samples =
    List.init periods (fun k ->
        let period = k + 1 in
        let time = time_at period in
        { period; time; average = time /. float_of_int period })
  in
  { border_event = g0; samples }

(* the per-border-event work item: read the Delta samples straight out
   of the kernel's arena (the view is only valid inside this callback,
   so only the samples themselves are allocated per border event) *)
let trace_of_times time_of u periods g0 =
  trace_of_periods periods g0 (fun period -> time_of (Unfolding.instance u ~event:g0 ~period))

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

(* ------------------------------------------------------------------ *)
(* The two routes of the simulate phase                                *)

type route = Border | Kernel

(* The border route.  Let A'[k][h] = t_{k_0}(h_1), the longest path
   from border event k in period 0 to border event h in period 1 (-inf
   when h_1 is unreached).  For i >= 2,

     t_{g_0}(h_i) = max_k ( t_{g_0}(k_{i-1}) + A'[k][h] )

   so the samples t_{g_0}(g_i) are the diagonal of the max-plus powers
   of A': x_1 = A'[g], x_i = x_{i-1} (x) A', sample i = x_i[g].  One
   scan of periods 0-1 per border event then replaces one of periods
   0-[periods].  Why A' read from period 0 is exact:

   - An arc u -> v with marking m leads u_(i-m) -> v_i, so a path moves
     to a later period only along a marked arc.  Only repetitive events
     have instances past period 0, and validation
     ({!Signal_graph.build}) rejects a marked disengageable arc (every
     arc from a non-repetitive to a repetitive event is disengageable)
     and an arc from a repetitive to a non-repetitive event.  A marked
     arc with an instance past period 0 therefore joins two repetitive
     events, and its target, having a marked in-arc, is a border event
     ({!Cut_set.border}).  Every path from g_0 to h_i thus enters
     period i-1 at a border instance k_{i-1}; the path splits there
     into a path to k_{i-1} and one from k_{i-1} to h_i inside periods
     i-1 and i, and any such pair joins into a path from g_0 to h_i.
   - Validation also rejects a disengageable arc leaving a repetitive
     event.  So from a repetitive root a path uses only arcs between
     repetitive events that fire in every period: the window 0 -> 1
     holds, from such a root, exactly the arcs of every later window
     (i-1) -> i, shifted by i-1 periods.
   - Initial events and once arcs only feed period 0, and no path from
     a repetitive root leads back into them.

   An unreached g_i (-inf here) reads as time 0, the kernel's
   convention. *)
let max_plus_product x a =
  let b = Array.length x in
  let y = Array.make b neg_infinity in
  for k = 0 to b - 1 do
    let xk = x.(k) in
    if xk > neg_infinity then begin
      let row = a.(k) in
      for h = 0 to b - 1 do
        let s = xk +. row.(h) in
        if s > y.(h) then y.(h) <- s
      done
    end
  done;
  y

let border_traces ~deadline ~jobs u border ~roots ~periods =
  let ones = Array.map (fun h -> Unfolding.instance u ~event:h ~period:1) border in
  let a =
    Timing_sim.simulate_many ~jobs ~until:1 u ~roots ~f:(fun _ view ->
        Array.map
          (fun h1 ->
            if Timing_sim.view_reached view h1 then Timing_sim.view_time view h1
            else neg_infinity)
          ones)
  in
  List.init (Array.length border) (fun gi ->
      Tsg_engine.Deadline.check deadline;
      let times = Array.make (periods + 1) 0. in
      let x = ref a.(gi) in
      for i = 1 to periods do
        if i > 1 then x := max_plus_product !x a;
        let t = (!x).(gi) in
        if t > neg_infinity then times.(i) <- t
      done;
      trace_of_periods periods border.(gi) (fun i -> times.(i)))

(* The paper's route: one g_0-initiated simulation per border event
   over every period *)
let kernel_traces ~jobs u ~roots ~periods =
  Array.to_list
    (Timing_sim.simulate_many ~jobs u ~roots ~f:(fun at view ->
         let g0, _ = Unfolding.event_of_instance u at in
         trace_of u periods g0 view))

(* Why the bytes hold.  The border route re-associates the kernel's
   sums: the kernel adds a path's delays from g_0 on, the products add
   a prefix's sum to a suffix's.  Both give the same floats, and equal
   samples tie as they did, when every partial sum is exact.  That
   holds if every delay (>= 0, by validation) is an integer multiple
   of 2^-q and (periods + 1) * sum delay * 2^q < 2^53: a path of the
   unfolding takes each arc at most once per period, so each partial
   sum is an integer multiple of 2^-q below 2^53 * 2^-q.  A q past 53
   would need the delays to sum below 1; such a model takes the
   kernel. *)
let exact_sums g ~periods =
  let arcs = Signal_graph.arcs g in
  let rec scale q d =
    if Float.is_integer (Float.ldexp d q) then Some q
    else if q >= 53 then None
    else scale (q + 1) d
  in
  match
    Array.fold_left
      (fun q (a : Signal_graph.arc) -> Option.bind q (fun q -> scale q a.delay))
      (Some 0) arcs
  with
  | None -> false
  | Some q ->
    let bound = (1 lsl 53) / (periods + 1) in
    let rec sum i acc =
      i = Array.length arcs
      ||
      let t = Float.ldexp arcs.(i).delay q in
      t < float_of_int bound
      &&
      let acc = acc + int_of_float t in
      acc < bound && sum (i + 1) acc
    in
    sum 0 0

(* The switch.  The products cost about b * periods * b^2 ~ b^4, the
   kernel b simulations over periods + 1 periods, about b^2 m: the
   border route pays iff b^2 < m.  It derives from the costs, so no
   flag, variable or request field moves it. *)
let choose_route g ~b ~periods =
  if b * b < Signal_graph.arc_count g && exact_sums g ~periods then Border else Kernel

(* the simulated horizon: [periods], at least 1, or b *)
let horizon ?periods b = match periods with Some p -> max 1 p | None -> b

let analyze_with ~choose ?periods ?(jobs = 1) g =
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
  let periods = horizon ?periods b in
  (* instances g_0 .. g_periods are needed, hence periods+1 layers *)
  let u =
    Tsg_obs.Trace.with_span "unfold" @@ fun () ->
    Tsg_engine.Metrics.time "analyze/unfold" @@ fun () ->
    let u = Unfolding.make g ~periods:(periods + 1) in
    Tsg_engine.Deadline.check deadline;
    u
  in
  let route = choose g ~b ~periods in
  let traces =
    Tsg_obs.Trace.with_span "simulate"
      ~args:
        [
          ("border_events", string_of_int b);
          ("route", match route with Border -> "border" | Kernel -> "kernel");
        ]
    @@ fun () ->
    Tsg_engine.Metrics.time "analyze/simulate" @@ fun () ->
    let border = Array.of_list border in
    let roots = Array.map (fun g0 -> Unfolding.instance u ~event:g0 ~period:0) border in
    match route with
    | Kernel -> kernel_traces ~jobs u ~roots ~periods
    | Border ->
      Tsg_engine.Metrics.incr "analyze/border_route";
      border_traces ~deadline ~jobs u border ~roots ~periods
  in
  finish g u ~border ~periods ~traces

let analyze ?periods ?jobs g = analyze_with ~choose:choose_route ?periods ?jobs g

module Internal = struct
  let trace_of_times = trace_of_times
  let best_of_traces = best_of_traces
  let finish = finish

  type nonrec route = route = Border | Kernel

  let route ?periods g =
    let b = List.length (Cut_set.border g) in
    choose_route g ~b ~periods:(horizon ?periods b)

  let analyze_by route = analyze_with ~choose:(fun _ ~b:_ ~periods:_ -> route)
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
