type t = {
  pattern_period : int;
  transient_periods : int;
  increment : float;
  lambda : float;
}

let times u sim =
  List.map
    (fun e -> (e, Timing_sim.occurrence_times u sim ~event:e))
    (Signal_graph.repetitive_events (Unfolding.signal_graph u))

let simulate ?max_periods g =
  if Signal_graph.repetitive_count g = 0 then
    raise (Cycle_time.Not_analyzable "the graph has no repetitive events");
  let b = List.length (Cut_set.border g) in
  let max_periods = match max_periods with Some p -> max 2 p | None -> (4 * b) + 8 in
  let u = Unfolding.make g ~periods:max_periods in
  times u (Timing_sim.simulate u)

(* the horizon is the simulated period count *)
let search times =
  let max_periods = match times with (_, ts) :: _ -> Array.length ts | [] -> 0 in
  let tol = 1e-9 in
  (* does pattern period k hold from period i0 on, with one shared
     increment across all events? *)
  let pattern_holds k i0 =
    let increment = ref None in
    let event_ok (_, ts) =
      let ok = ref true in
      for i = i0 to Array.length ts - 1 - k do
        let d = ts.(i + k) -. ts.(i) in
        match !increment with
        | None -> increment := Some d
        | Some d0 -> if abs_float (d -. d0) > tol *. (1. +. abs_float d0) then ok := false
      done;
      !ok
    in
    if List.for_all event_ok times then !increment else None
  in
  let rec search k =
    if k > max_periods / 2 then None
    else begin
      (* smallest transient for this k *)
      let rec try_transient i0 =
        if i0 > max_periods - (2 * k) then None
        else
          match pattern_holds k i0 with
          | Some increment ->
            Some
              {
                pattern_period = k;
                transient_periods = i0;
                increment;
                lambda = increment /. float_of_int k;
              }
          | None -> try_transient (i0 + 1)
      in
      match try_transient 0 with Some r -> Some r | None -> search (k + 1)
    end
  in
  search 1

let detect ?max_periods g = search (simulate ?max_periods g)
