(* Property tests for the graph substrate against brute-force oracles
   on small random digraphs. *)

open Tsg_graph

(* small random digraph: n <= 7, arc probability ~ p *)
let digraph_gen =
  QCheck2.Gen.(
    let* n = int_range 1 7 in
    let* edges =
      list_size (int_range 0 (n * n))
        (let* s = int_range 0 (n - 1) in
         let* d = int_range 0 (n - 1) in
         let* w = int_range 0 9 in
         return (s, d, float_of_int w))
    in
    return (n, edges))

let print_graph (n, edges) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map (fun (s, d, w) -> Printf.sprintf "%d->%d(%g)" s d w) edges))

let case ?(count = 200) ~name law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:print_graph digraph_gen law)

let build (n, edges) = Digraph.of_arcs ~n edges

(* brute-force reachability by iterating the adjacency relation *)
let reachable_oracle g src =
  let n = Digraph.vertex_count g in
  let reach = Array.make n false in
  reach.(src) <- true;
  for _ = 1 to n do
    Digraph.iter_arcs g (fun s d _ -> if reach.(s) then reach.(d) <- true)
  done;
  reach

let prop_transpose_involution =
  case ~name:"transpose is an involution (up to arc order)" (fun input ->
      let g = build input in
      List.sort compare (Digraph.arcs (Digraph.transpose (Digraph.transpose g)))
      = List.sort compare (Digraph.arcs g))

let prop_scc_is_mutual_reachability =
  case ~name:"SCC ids = mutual reachability classes" (fun input ->
      let g = build input in
      let comp, _ = Scc.component_ids g in
      let ok = ref true in
      Digraph.iter_vertices g (fun u ->
          let from_u = reachable_oracle g u in
          Digraph.iter_vertices g (fun v ->
              let mutual = from_u.(v) && (reachable_oracle g v).(u) in
              if (comp.(u) = comp.(v)) <> mutual then ok := false));
      !ok)

let prop_topo_respects_arcs =
  case ~name:"topological order respects every arc" (fun input ->
      let g = build input in
      match Topo.sort g with
      | Error on_cycle ->
        (* every reported vertex really lies on a cycle *)
        List.for_all
          (fun v ->
            let r = reachable_oracle g v in
            List.exists (fun w -> r.(w) && (reachable_oracle g w).(v)) (Digraph.succ g v))
          on_cycle
        && on_cycle <> []
      | Ok order ->
        let pos = Array.make (Digraph.vertex_count g) 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        let ok = ref (List.length order = Digraph.vertex_count g) in
        Digraph.iter_arcs g (fun s d _ -> if pos.(s) >= pos.(d) then ok := false);
        !ok)

(* brute-force longest path on DAGs by enumerating all paths *)
let longest_path_oracle g ~src ~dst =
  let best = ref neg_infinity in
  let rec walk v total visited =
    if v = dst then best := Float.max !best total;
    Digraph.iter_out g v (fun w weight ->
        if not (List.exists (fun x -> x = w) visited) then
          walk w (total +. weight) (w :: visited))
  in
  walk src 0. [ src ];
  !best

let prop_dag_longest_matches_oracle =
  case ~count:120 ~name:"dag_longest matches path enumeration" (fun input ->
      let g = build input in
      if not (Topo.is_dag g) then true
      else begin
        let dist, _ = Paths.dag_longest g ~weight:Fun.id ~sources:[ 0 ] in
        let ok = ref true in
        Digraph.iter_vertices g (fun v ->
            let oracle = longest_path_oracle g ~src:0 ~dst:v in
            let got = dist.(v) in
            if oracle = neg_infinity then begin
              if got <> neg_infinity then ok := false
            end
            else if abs_float (oracle -. got) > 1e-9 then ok := false);
        !ok
      end)

(* brute-force simple cycle count via DFS enumeration *)
let cycle_count_oracle g =
  let n = Digraph.vertex_count g in
  let count = ref 0 in
  for s = 0 to n - 1 do
    (* count simple cycles whose smallest vertex is s *)
    let rec walk v visited =
      Digraph.iter_out g v (fun w _ ->
          if w = s then incr count
          else if w > s && not (List.exists (fun x -> x = w) visited) then
            walk w (w :: visited))
    in
    walk s [ s ]
  done;
  !count

let prop_johnson_count =
  case ~count:120 ~name:"Johnson's count matches DFS enumeration" (fun input ->
      let g = build input in
      Simple_cycles.count g = cycle_count_oracle g)

let prop_bellman_ford_agrees_on_dags =
  case ~count:120 ~name:"Bellman-Ford = DAG longest paths on acyclic graphs" (fun input ->
      let g = build input in
      if not (Topo.is_dag g) then true
      else
        match Paths.bellman_ford_longest g ~weight:Fun.id ~sources:[ 0 ] with
        | Paths.Positive_cycle _ -> false
        | Paths.No_positive_cycle dist ->
          let expected, _ = Paths.dag_longest g ~weight:Fun.id ~sources:[ 0 ] in
          let ok = ref true in
          Array.iteri
            (fun v d ->
              if
                (d = neg_infinity) <> (expected.(v) = neg_infinity)
                || (d > neg_infinity && abs_float (d -. expected.(v)) > 1e-9)
              then ok := false)
            dist;
          !ok)

let prop_positive_cycle_detection =
  case ~count:150 ~name:"positive-cycle verdict matches the cycle oracle" (fun input ->
      let g = build input in
      (* oracle: does some cycle reachable from 0 have positive weight? *)
      let reach = reachable_oracle g 0 in
      let positive_cycle_exists =
        let found = ref false in
        Simple_cycles.fold g ~init:() ~f:(fun () cycle ->
            match cycle with
            | [] -> ()
            | first :: _ ->
              if reach.(first) then begin
                let rec weight = function
                  | a :: (b :: _ as rest) ->
                    (match Digraph.find_arc g ~src:a ~dst:b with
                    | Some w ->
                      (* parallel arcs: take the heaviest, the oracle
                         only needs existence of some positive cycle *)
                      let best =
                        List.fold_left
                          (fun acc (d, w') -> if d = b then Float.max acc w' else acc)
                          w (Digraph.out_arcs g a)
                      in
                      best +. weight rest
                    | None -> neg_infinity)
                  | [ last ] -> (
                    match Digraph.find_arc g ~src:last ~dst:first with
                    | Some w ->
                      List.fold_left
                        (fun acc (d, w') -> if d = first then Float.max acc w' else acc)
                        w (Digraph.out_arcs g last)
                    | None -> neg_infinity)
                  | [] -> 0.
                in
                if weight cycle > 1e-12 then found := true
              end);
        !found
      in
      match Paths.bellman_ford_longest g ~weight:Fun.id ~sources:[ 0 ] with
      | Paths.Positive_cycle _ -> positive_cycle_exists
      | Paths.No_positive_cycle _ -> not positive_cycle_exists)

let suite =
  [
    prop_transpose_involution;
    prop_scc_is_mutual_reachability;
    prop_topo_respects_arcs;
    prop_dag_longest_matches_oracle;
    prop_johnson_count;
    prop_bellman_ford_agrees_on_dags;
    prop_positive_cycle_detection;
  ]
