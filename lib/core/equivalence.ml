type verdict =
  | Equal
  | Different_events
  | Different_time of { event : int; period : int; left : float; right : float }
  | No_steady_state

let same_event_sets g1 g2 =
  Signal_graph.event_count g1 = Signal_graph.event_count g2
  && Array.for_all
       (fun (ev : Event.t) ->
         match Signal_graph.id_opt g2 ev with
         | None -> false
         | Some id2 ->
           Signal_graph.class_of g1 (Signal_graph.id g1 ev) = Signal_graph.class_of g2 id2)
       (Signal_graph.events_of g1)

let compare ?periods g1 g2 =
  if not (same_event_sets g1 g2) then Different_events
  else begin
    let b1 = List.length (Cut_set.border g1) in
    let b2 = List.length (Cut_set.border g2) in
    let periods =
      match periods with Some p -> max 2 p | None -> (2 * max b1 b2) + 8
    in
    let u1 = Unfolding.make g1 ~periods in
    let u2 = Unfolding.make g2 ~periods in
    let sim1 = Timing_sim.simulate u1 in
    let sim2 = Timing_sim.simulate u2 in
    let tol = 1e-9 in
    let mismatch = ref None in
    Array.iteri
      (fun e1 (ev : Event.t) ->
        if !mismatch = None then begin
          let e2 = Signal_graph.id g2 ev in
          let t1 = Timing_sim.occurrence_times u1 sim1 ~event:e1 in
          let t2 = Timing_sim.occurrence_times u2 sim2 ~event:e2 in
          (* same class, hence the same instance counts *)
          Array.iteri
            (fun period x ->
              if !mismatch = None then begin
                let y = t2.(period) in
                if abs_float (x -. y) > tol *. (1. +. Float.max (abs_float x) (abs_float y))
                then mismatch := Some (Different_time { event = e1; period; left = x; right = y })
              end)
            t1
        end)
      (Signal_graph.events_of g1);
    match !mismatch with
    | Some v -> v
    | None ->
      if Signal_graph.repetitive_count g1 = 0 then
        (* acyclic graphs have no instances beyond the horizon *)
        Equal
      else (
        (* equality on the horizon extends to infinity once both sides
           are provably periodic within it *)
        match
          ( Steady_state.search (Steady_state.times u1 sim1),
            Steady_state.search (Steady_state.times u2 sim2) )
        with
        | Some _, Some _ -> Equal
        | _ -> No_steady_state)
  end

let timing_equal ?periods g1 g2 = compare ?periods g1 g2 = Equal
