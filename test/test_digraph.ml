open Tsg_graph

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, labels are strings *)
  Digraph.of_arcs ~n:4 [ (0, 1, "a"); (0, 2, "b"); (1, 3, "c"); (2, 3, "d") ]

let test_empty () =
  let g = Digraph.create () in
  Alcotest.(check int) "no vertices" 0 (Digraph.vertex_count g);
  Alcotest.(check int) "no arcs" 0 (Digraph.arc_count g)

let test_add_vertex () =
  let g = Digraph.create () in
  Alcotest.(check int) "first id" 0 (Digraph.add_vertex g);
  Alcotest.(check int) "second id" 1 (Digraph.add_vertex g);
  Alcotest.(check int) "count" 2 (Digraph.vertex_count g);
  Alcotest.(check bool) "mem 1" true (Digraph.mem_vertex g 1);
  Alcotest.(check bool) "not mem 2" false (Digraph.mem_vertex g 2)

let test_add_vertices_growth () =
  let g = Digraph.create ~capacity:1 () in
  Digraph.add_vertices g 100;
  Alcotest.(check int) "grew" 100 (Digraph.vertex_count g);
  Digraph.add_arc g ~src:0 ~dst:99 ();
  Alcotest.(check bool) "arc present" true (Digraph.mem_arc g ~src:0 ~dst:99)

let test_arcs_order () =
  let g = diamond () in
  Alcotest.(check (list (pair int string)))
    "out arcs in insertion order"
    [ (1, "a"); (2, "b") ]
    (Digraph.out_arcs g 0);
  Alcotest.(check (list (pair int string)))
    "in arcs in insertion order"
    [ (1, "c"); (2, "d") ]
    (Digraph.in_arcs g 3)

let test_degrees () =
  let g = diamond () in
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 2 (Digraph.in_degree g 3);
  Alcotest.(check int) "inner out" 1 (Digraph.out_degree g 1);
  Alcotest.(check int) "source in" 0 (Digraph.in_degree g 0)

let test_succ_pred () =
  let g = diamond () in
  Alcotest.(check (list int)) "succ" [ 1; 2 ] (Digraph.succ g 0);
  Alcotest.(check (list int)) "pred" [ 1; 2 ] (Digraph.pred g 3)

let test_find_arc () =
  let g = Digraph.of_arcs ~n:2 [ (0, 1, "first"); (0, 1, "second") ] in
  Alcotest.(check (option string)) "first inserted wins" (Some "first")
    (Digraph.find_arc g ~src:0 ~dst:1);
  Alcotest.(check (option string)) "absent" None (Digraph.find_arc g ~src:1 ~dst:0)

let test_parallel_arcs_and_self_loops () =
  let g = Digraph.of_arcs ~n:2 [ (0, 1, 1); (0, 1, 2); (1, 1, 3) ] in
  Alcotest.(check int) "three arcs" 3 (Digraph.arc_count g);
  Alcotest.(check int) "parallel out degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check (list int)) "self loop succ" [ 1 ] (Digraph.succ g 1)

let test_iter_arcs_order () =
  let g = diamond () in
  let seen = ref [] in
  Digraph.iter_arcs g (fun s d l -> seen := (s, d, l) :: !seen);
  Alcotest.(check (list (triple int int string)))
    "grouped by source"
    [ (0, 1, "a"); (0, 2, "b"); (1, 3, "c"); (2, 3, "d") ]
    (List.rev !seen)

(* vertex 1 has four out-arcs and four in-arcs, inserted interleaved,
   with a parallel pair each way and a self-loop: every iterator must
   replay them in insertion order *)
let test_iterators_insertion_order () =
  let g = Digraph.create () in
  Digraph.add_vertices g 4;
  List.iter
    (fun (src, dst, label) -> Digraph.add_arc g ~src ~dst label)
    [ (1, 3, "o1"); (0, 1, "i1"); (1, 0, "o2"); (2, 1, "i2"); (1, 3, "o3");
      (1, 1, "loop"); (0, 1, "i3") ];
  let collect iter =
    let seen = ref [] in
    iter (fun w label -> seen := (w, label) :: !seen);
    List.rev !seen
  in
  Alcotest.(check (list (pair int string))) "iter_out"
    [ (3, "o1"); (0, "o2"); (3, "o3"); (1, "loop") ]
    (collect (Digraph.iter_out g 1));
  Alcotest.(check (list (pair int string))) "iter_in"
    [ (0, "i1"); (2, "i2"); (1, "loop"); (0, "i3") ]
    (collect (Digraph.iter_in g 1));
  Alcotest.(check (list (pair int string))) "iter_out agrees with out_arcs"
    (Digraph.out_arcs g 1) (collect (Digraph.iter_out g 1));
  Alcotest.(check (list (pair int string))) "iter_in agrees with in_arcs"
    (Digraph.in_arcs g 1) (collect (Digraph.iter_in g 1));
  let seen = ref [] in
  Digraph.iter_arcs g (fun s d l -> seen := (s, d, l) :: !seen);
  Alcotest.(check (list (triple int int string))) "iter_arcs"
    [ (0, 1, "i1"); (0, 1, "i3"); (1, 3, "o1"); (1, 0, "o2"); (1, 3, "o3");
      (1, 1, "loop"); (2, 1, "i2") ]
    (List.rev !seen)

let test_fold_arcs () =
  let g = diamond () in
  let n = Digraph.fold_arcs g ~init:0 ~f:(fun acc _ _ _ -> acc + 1) in
  Alcotest.(check int) "fold counts arcs" 4 n

let test_arcs_roundtrip () =
  let arcs = [ (0, 1, "a"); (0, 2, "b"); (1, 3, "c"); (2, 3, "d") ] in
  let g = Digraph.of_arcs ~n:4 arcs in
  Alcotest.(check (list (triple int int string))) "arcs roundtrip" arcs (Digraph.arcs g)

let test_map_labels () =
  let g = diamond () in
  let g' = Digraph.map_labels ~f:String.uppercase_ascii g in
  Alcotest.(check (option string)) "mapped" (Some "A") (Digraph.find_arc g' ~src:0 ~dst:1);
  Alcotest.(check int) "same arc count" 4 (Digraph.arc_count g')

let test_transpose () =
  let g = diamond () in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed arc" true (Digraph.mem_arc t ~src:1 ~dst:0);
  Alcotest.(check bool) "old direction gone" false (Digraph.mem_arc t ~src:0 ~dst:1);
  Alcotest.(check int) "same arc count" 4 (Digraph.arc_count t)

let test_copy_independent () =
  let g = diamond () in
  let g' = Digraph.copy g in
  Digraph.add_arc g' ~src:3 ~dst:0 "back";
  Alcotest.(check int) "copy mutated" 5 (Digraph.arc_count g');
  Alcotest.(check int) "original untouched" 4 (Digraph.arc_count g)

let test_invalid_vertex () =
  let g = diamond () in
  Alcotest.check_raises "add_arc range check"
    (Invalid_argument "Digraph.add_arc: vertex 9 out of range [0, 4)") (fun () ->
      Digraph.add_arc g ~src:9 ~dst:0 "x")

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "add_vertex ids" `Quick test_add_vertex;
    Alcotest.test_case "capacity growth" `Quick test_add_vertices_growth;
    Alcotest.test_case "arc insertion order" `Quick test_arcs_order;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "succ and pred" `Quick test_succ_pred;
    Alcotest.test_case "find_arc picks first inserted" `Quick test_find_arc;
    Alcotest.test_case "parallel arcs and self loops" `Quick test_parallel_arcs_and_self_loops;
    Alcotest.test_case "iter_arcs order" `Quick test_iter_arcs_order;
    Alcotest.test_case "iterators keep insertion order" `Quick test_iterators_insertion_order;
    Alcotest.test_case "fold_arcs" `Quick test_fold_arcs;
    Alcotest.test_case "of_arcs/arcs roundtrip" `Quick test_arcs_roundtrip;
    Alcotest.test_case "map_labels" `Quick test_map_labels;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "vertex range checks" `Quick test_invalid_vertex;
  ]
