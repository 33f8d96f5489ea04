let dag_longest g ~weight ~sources =
  let n = Digraph.vertex_count g in
  let dist = Array.make n neg_infinity in
  let pred = Array.make n (-1) in
  let is_source = Array.make n false in
  List.iter
    (fun v ->
      is_source.(v) <- true;
      dist.(v) <- 0.)
    sources;
  let order =
    match Topo.sort g with
    | Ok order -> order
    | Error _ -> invalid_arg "Paths.dag_longest: graph has a cycle"
  in
  let relax_into v =
    if not is_source.(v) then
      Digraph.iter_in g v (fun u label ->
          if dist.(u) > neg_infinity then begin
            let d = dist.(u) +. weight label in
            if d > dist.(v) then begin
              dist.(v) <- d;
              pred.(v) <- u
            end
          end)
  in
  List.iter relax_into order;
  (dist, pred)

type cycle_check =
  | No_positive_cycle of float array
  | Positive_cycle of int list

let bellman_ford_longest ?(tolerance = 1e-12) g ~weight ~sources =
  let n = Digraph.vertex_count g in
  let dist = Array.make n neg_infinity in
  let pred = Array.make n (-1) in
  List.iter (fun v -> dist.(v) <- 0.) sources;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    Digraph.iter_arcs g (fun src dst label ->
        if dist.(src) > neg_infinity then begin
          let d = dist.(src) +. weight label in
          if d > dist.(dst) +. tolerance then begin
            dist.(dst) <- d;
            pred.(dst) <- src;
            changed := true
          end
        end)
  done;
  if not !changed then No_positive_cycle dist
  else begin
    (* relaxation survived n+1 sweeps: a positive cycle exists and the
       predecessor chain of some still-relaxable arc's target wraps
       around it.  Walk the chain recording positions; the first
       repeated vertex closes the witness.  (Chains of targets that
       are merely downstream of the cycle pass through it; chains that
       reach a source carry no cycle and the next candidate is tried.) *)
    let witness_from start =
      let pos_of = Hashtbl.create 16 in
      let rec walk v pos acc =
        if v < 0 then None
        else
          match Hashtbl.find_opt pos_of v with
          | Some p ->
            (* acc is recent-first: positions pos-1 .. 0; the cycle is
               v -> v_(pos-1) -> ... -> v_p (= v), following pred arcs *)
            let seg = List.filteri (fun i _ -> i < pos - p) acc in
            Some (v :: seg)
          | None ->
            Hashtbl.add pos_of v pos;
            walk pred.(v) (pos + 1) (v :: acc)
      in
      walk start 0 []
    in
    let result = ref None in
    Digraph.iter_arcs g (fun src dst label ->
        if
          !result = None
          && dist.(src) > neg_infinity
          && dist.(src) +. weight label > dist.(dst) +. tolerance
        then result := witness_from dst);
    match !result with
    | Some cycle -> Positive_cycle cycle
    | None ->
      (* cannot happen: some relaxable target must sit on or below the
         positive cycle after n+1 sweeps *)
      failwith "Paths.bellman_ford_longest: positive cycle detected but no witness found"
  end

let walk_from_pred ~pred v =
  let rec back u acc = if pred.(u) < 0 then u :: acc else back pred.(u) (u :: acc) in
  back v []
