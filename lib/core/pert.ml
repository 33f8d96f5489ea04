type report = {
  finish_times : float array;
  makespan : float;
  critical_path : int list;
  arc_floats : float array;
}

let analyze g =
  if Signal_graph.repetitive_count g > 0 then
    invalid_arg "Pert.analyze: the graph has repetitive events (use Cycle_time)";
  (* one period of the unfolding IS the activity network: marked arcs
     constrain only later (non-existent) instances and drop out *)
  let u = Unfolding.make g ~periods:1 in
  let sim = Timing_sim.simulate u in
  let n = Signal_graph.event_count g in
  (* with a single period, instance ids coincide with event ids *)
  let finish_times = Array.init n (fun e -> sim.Timing_sim.time.(e)) in
  let makespan = Array.fold_left Float.max 0. finish_times in
  let sink =
    let best = ref 0 in
    Array.iteri (fun e t -> if t > finish_times.(!best) then best := e) finish_times;
    !best
  in
  let critical_path =
    List.map fst (Timing_sim.critical_path u sim ~instance:sink)
  in
  (* backward pass: the latest time each event may finish without
     moving the makespan *)
  let delays = Unfolding.delays u in
  let latest = Array.make n makespan in
  let order = Unfolding.period_order u 0 in
  for k = Array.length order - 1 downto 0 do
    let v = order.(k) in
    Unfolding.iter_out u v (fun dst aid ->
        let slack_bound = latest.(dst) -. delays.(aid) in
        if slack_bound < latest.(v) then latest.(v) <- slack_bound)
  done;
  let arc_floats = Array.make (Signal_graph.arc_count g) infinity in
  for src = 0 to n - 1 do
    Unfolding.iter_out u src (fun dst aid ->
        let f = latest.(dst) -. finish_times.(src) -. delays.(aid) in
        if f < arc_floats.(aid) then arc_floats.(aid) <- Float.max 0. f)
  done;
  { finish_times; makespan; critical_path; arc_floats }

let pp g ppf r =
  Fmt.pf ppf "@[<v>makespan: %g@," r.makespan;
  Fmt.pf ppf "critical path: %a@,"
    Fmt.(list ~sep:(any " -> ") (fun ppf e -> Event.pp ppf (Signal_graph.event g e)))
    r.critical_path;
  Array.iteri
    (fun e t -> Fmt.pf ppf "  %a finishes at %g@," Event.pp (Signal_graph.event g e) t)
    r.finish_times;
  Fmt.pf ppf "@]"
