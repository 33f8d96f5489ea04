type t = { pieces : (float * float * float) list (* x_from, intercept, slope *) }

(* longest paths over the unfolding from a chosen instance, with every
   instance of one Signal-Graph arc excluded (its delay is the
   parameter and must not be baked into the constants) *)
let initiated_without u ~at ~skip_arc =
  let n = Unfolding.instance_count u in
  let time = Array.make n neg_infinity in
  time.(at) <- 0.;
  let delays = Unfolding.delays u in
  Unfolding.iter_topological u (fun v ->
      if v <> at then
        Unfolding.iter_in u v (fun src aid ->
            if aid <> skip_arc && time.(src) > neg_infinity then begin
              let d = time.(src) +. delays.(aid) in
              if d > time.(v) then time.(v) <- d
            end));
  time

(* best cycle ratio among cycles avoiding one arc: the paper's own
   border-event argument applies to the arc-excluded unfolding (every
   cycle avoiding the arc still crosses a border event and carries at
   most b tokens), so b initiated simulations give the exact value;
   neg_infinity when no cycle avoids the arc *)
let lambda_rest g u ~skip_arc =
  let border = Cut_set.border g in
  let b = List.length border in
  List.fold_left
    (fun acc g0 ->
      let time =
        initiated_without u ~at:(Unfolding.instance u ~event:g0 ~period:0) ~skip_arc
      in
      let best = ref acc in
      for k = 1 to b do
        match Unfolding.instance_opt u ~event:g0 ~period:k with
        | Some inst when time.(inst) > neg_infinity ->
          let ratio = time.(inst) /. float_of_int k in
          if ratio > !best then best := ratio
        | Some _ | None -> ()
      done;
      !best)
    neg_infinity border

(* upper envelope of lines (intercept, slope) over x >= 0 *)
let envelope lines =
  (* keep the best intercept per slope, sort by slope ascending *)
  let by_slope = Hashtbl.create 16 in
  List.iter
    (fun (c, s) ->
      match Hashtbl.find_opt by_slope s with
      | Some c' when c' >= c -> ()
      | _ -> Hashtbl.replace by_slope s c)
    lines;
  let sorted =
    Hashtbl.fold (fun s c acc -> (c, s) :: acc) by_slope []
    |> List.sort (fun (_, s1) (_, s2) -> Float.compare s1 s2)
  in
  (* convex hull scan: hull holds (line, x_start) with x_start the
     point from which the line is the maximum, most recent first *)
  let intersection (c1, s1) (c2, s2) = (c1 -. c2) /. (s2 -. s1) in
  let hull =
    List.fold_left
      (fun hull line ->
        let rec place = function
          | [] -> [ (line, neg_infinity) ]
          | ((top, x_top) :: rest) as hull ->
            let x = intersection top line in
            if x <= x_top then place rest else (line, x) :: hull
        in
        place hull)
      [] sorted
  in
  (* clip to x >= 0 and orient left-to-right *)
  let ordered = List.rev hull in
  let rec clip = function
    | [] -> []
    | [ ((c, s), x_from) ] -> [ (Float.max 0. x_from, c, s) ]
    | ((c, s), x_from) :: ((_, x_next) :: _ as rest) ->
      if x_next <= 0. then clip rest else (Float.max 0. x_from, c, s) :: clip rest
  in
  { pieces = clip ordered }

let analyze g ~arc =
  if arc < 0 || arc >= Signal_graph.arc_count g then
    invalid_arg "Parametric.analyze: arc id out of range";
  if Signal_graph.repetitive_count g = 0 then
    raise (Cycle_time.Not_analyzable "the graph has no repetitive events");
  let a = Signal_graph.arc g arc in
  if
    not
      (Signal_graph.is_repetitive g a.Signal_graph.arc_src
      && Signal_graph.is_repetitive g a.Signal_graph.arc_dst)
  then invalid_arg "Parametric.analyze: the arc is outside the repetitive part";
  let b = List.length (Cut_set.border g) in
  let m_a = if a.Signal_graph.marked then 1 else 0 in
  let u = Unfolding.make g ~periods:(b + 1) in
  let time =
    initiated_without u
      ~at:(Unfolding.instance u ~event:a.Signal_graph.arc_dst ~period:0)
      ~skip_arc:arc
  in
  let through_lines = ref [] in
  for k = 0 to b - m_a do
    let eps = k + m_a in
    if eps >= 1 then begin
      match Unfolding.instance_opt u ~event:a.Signal_graph.arc_src ~period:k with
      | Some inst when time.(inst) > neg_infinity ->
        let eps_f = float_of_int eps in
        through_lines := (time.(inst) /. eps_f, 1. /. eps_f) :: !through_lines
      | Some _ | None -> ()
    end
  done;
  let rest = lambda_rest g u ~skip_arc:arc in
  let lines =
    (if rest > neg_infinity then [ (rest, 0.) ] else []) @ !through_lines
  in
  if lines = [] then
    raise (Cycle_time.Not_analyzable "no cycle constrains the parametric arc");
  envelope lines

let eval t x =
  if x < 0. then invalid_arg "Parametric.eval: negative delay";
  let rec find = function
    | [] -> assert false
    | [ (_, c, s) ] -> c +. (s *. x)
    | (_, c, s) :: ((x_next, _, _) :: _ as rest) ->
      if x < x_next then c +. (s *. x) else find rest
  in
  find t.pieces

let breakpoints t =
  match t.pieces with [] | [ _ ] -> [] | _ :: rest -> List.map (fun (x, _, _) -> x) rest

let slope_after t x =
  if x < 0. then invalid_arg "Parametric.slope_after: negative delay";
  let rec find = function
    | [] -> assert false
    | [ (_, _, s) ] -> s
    | (_, _, s) :: ((x_next, _, _) :: _ as rest) -> if x < x_next then s else find rest
  in
  find t.pieces

let pieces t = t.pieces
