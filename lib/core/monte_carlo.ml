type stats = {
  mean : float;
  std : float;
  low : float;
  high : float;
  runs : int;
  periods : int;
}

(* one longest-path sweep with delays drawn per unfolding arc *)
let run_once u rng ~sampler =
  let n = Unfolding.instance_count u in
  let time = Array.make n 0. in
  let has_pred = Array.make n false in
  Unfolding.iter_topological u (fun v ->
      Unfolding.iter_in u v (fun src aid ->
          let delay = sampler aid rng in
          if delay < 0. then invalid_arg "Monte_carlo: sampler returned a negative delay";
          let d = time.(src) +. delay in
          if (not has_pred.(v)) || d > time.(v) then begin
            time.(v) <- d;
            has_pred.(v) <- true
          end));
  time

let estimate ?(seed = 42) ?(runs = 30) ?(periods = 60) ?(jobs = 1) g ~sampler =
  if Signal_graph.repetitive_count g = 0 then
    raise (Cycle_time.Not_analyzable "the graph has no repetitive events");
  if runs < 1 then invalid_arg "Monte_carlo.estimate: runs must be >= 1";
  if periods < 8 then invalid_arg "Monte_carlo.estimate: need at least 8 periods";
  let reference =
    match Cut_set.border g with
    | e :: _ -> e
    | [] -> raise (Cycle_time.Not_analyzable "the graph has no border events")
  in
  let u = Unfolding.make g ~periods in
  let half = periods / 2 in
  let one_run r =
    let rng = Random.State.make [| seed; r |] in
    let time = run_once u rng ~sampler in
    (* rate of the reference event over the second half *)
    let t_last = time.(Unfolding.instance u ~event:reference ~period:(periods - 1)) in
    let t_half = time.(Unfolding.instance u ~event:reference ~period:half) in
    (t_last -. t_half) /. float_of_int (periods - 1 - half)
  in
  Tsg_engine.Metrics.incr "monte_carlo/estimates";
  Tsg_engine.Metrics.incr ~by:runs "monte_carlo/runs";
  let estimates =
    Tsg_engine.Metrics.time "monte_carlo/simulate" @@ fun () ->
    Tsg_engine.Pool.map ~jobs one_run (Array.init runs Fun.id)
  in
  let mean = Array.fold_left ( +. ) 0. estimates /. float_of_int runs in
  let var =
    if runs = 1 then 0.
    else
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. estimates
      /. float_of_int (runs - 1)
  in
  let low = Array.fold_left Float.min infinity estimates in
  let high = Array.fold_left Float.max neg_infinity estimates in
  { mean; std = sqrt var; low; high; runs; periods }

let uniform_jitter g ~percent =
  if percent < 0. || percent > 100. then
    invalid_arg "Monte_carlo.uniform_jitter: percent must be within [0, 100]";
  let factor = percent /. 100. in
  fun arc_id rng ->
    let d = (Signal_graph.arc g arc_id).Signal_graph.delay in
    let width = 2. *. d *. factor in
    if width <= 0. then d else (d *. (1. -. factor)) +. Random.State.float rng width
