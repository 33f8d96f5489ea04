open Tsg_graph

(* the successor-iterator entry point on the same arcs: it shares the
   Kahn loop, so it must give the same order, and [None] exactly when
   [sort] errs *)
let check_sort msg expected g =
  Alcotest.(check (result (list int) (list int))) msg expected (Topo.sort g);
  Alcotest.(check (option (list int)))
    (msg ^ " (sort_succ)") (Result.to_option expected)
    (Option.map Array.to_list
       (Topo.sort_succ ~check:ignore (Digraph.vertex_count g) (fun v f ->
            List.iter f (Digraph.succ g v))))

let test_sort_dag () =
  let g = Digraph.of_arcs ~n:4 [ (0, 1, ()); (0, 2, ()); (1, 3, ()); (2, 3, ()) ] in
  check_sort "canonical order" (Ok [ 0; 1; 2; 3 ]) g

let test_sort_canonical_ties () =
  (* both 0 and 1 are sources; smallest id first *)
  let g = Digraph.of_arcs ~n:3 [ (1, 2, ()); (0, 2, ()) ] in
  check_sort "ties by id" (Ok [ 0; 1; 2 ]) g

let test_sort_respects_arcs () =
  let g = Digraph.of_arcs ~n:3 [ (2, 1, ()); (1, 0, ()) ] in
  check_sort "reversed ids" (Ok [ 2; 1; 0 ]) g

let test_cycle_detection () =
  let g = Digraph.of_arcs ~n:4 [ (0, 1, ()); (1, 2, ()); (2, 1, ()); (2, 3, ()) ] in
  check_sort "reports cycle vertices" (Error [ 1; 2 ]) g;
  Alcotest.(check bool) "not a dag" false (Topo.is_dag g)

let test_cycle_excludes_downstream () =
  (* 3 is only downstream of the cycle, not on it *)
  let g = Digraph.of_arcs ~n:4 [ (0, 1, ()); (1, 0, ()); (1, 2, ()); (2, 3, ()) ] in
  check_sort "only cycle vertices" (Error [ 0; 1 ]) g

let test_self_loop () =
  let g = Digraph.of_arcs ~n:2 [ (0, 0, ()); (0, 1, ()) ] in
  check_sort "self loop" (Error [ 0 ]) g

let test_sort_exn () =
  let dag = Digraph.of_arcs ~n:2 [ (0, 1, ()) ] in
  Alcotest.(check (list int)) "exn variant on dag" [ 0; 1 ] (Topo.sort_exn dag);
  let cyc = Digraph.of_arcs ~n:1 [ (0, 0, ()) ] in
  Alcotest.check_raises "raises on cycle"
    (Invalid_argument "Topo.sort_exn: graph has a cycle") (fun () ->
      ignore (Topo.sort_exn cyc))

let test_empty () =
  check_sort "empty" (Ok []) (Digraph.create ())

let suite =
  [
    Alcotest.test_case "sorts a dag" `Quick test_sort_dag;
    Alcotest.test_case "canonical tie-break" `Quick test_sort_canonical_ties;
    Alcotest.test_case "respects arc direction" `Quick test_sort_respects_arcs;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "cycle report excludes downstream vertices" `Quick
      test_cycle_excludes_downstream;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "sort_exn" `Quick test_sort_exn;
    Alcotest.test_case "empty graph" `Quick test_empty;
  ]
