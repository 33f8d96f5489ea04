open Tsg

let fig1 () = Tsg_circuit.Circuit_library.fig1_tsg ()

(* [f src dst arc] over every unfolding arc, read off the out-CSR *)
let iter_arcs u f =
  let starts, dsts, aids = Unfolding.out_adjacency u in
  for v = 0 to Unfolding.instance_count u - 1 do
    for j = starts.(v) to starts.(v + 1) - 1 do
      f v dsts.(j) aids.(j)
    done
  done

let arc_count u =
  let starts, _, _ = Unfolding.out_adjacency u in
  starts.(Unfolding.instance_count u)

let check_arcs_go_forward msg u =
  let pos = Unfolding.topo_position u in
  iter_arcs u (fun src dst _ -> Alcotest.(check bool) msg true (pos.(src) < pos.(dst)))

let test_instance_layout () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  (* 8 events in period 0, 6 repetitive in periods 1 and 2 *)
  Alcotest.(check int) "instance count" (8 + 6 + 6) (Unfolding.instance_count u);
  Alcotest.(check int) "periods" 3 (Unfolding.periods u)

let test_instance_roundtrip () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  for e = 0 to Signal_graph.event_count g - 1 do
    for p = 0 to 2 do
      match Unfolding.instance_opt u ~event:e ~period:p with
      | Some i ->
        Alcotest.(check (pair int int)) "roundtrip" (e, p) (Unfolding.event_of_instance u i)
      | None ->
        Alcotest.(check bool) "only non-repetitive instances missing" false
          (Signal_graph.is_repetitive g e || p = 0)
    done
  done

let test_non_repetitive_single_instance () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let f = Signal_graph.id g (Event.of_string_exn "f-") in
  Alcotest.(check bool) "period 0 exists" true
    (Unfolding.instance_opt u ~event:f ~period:0 <> None);
  Alcotest.(check bool) "period 1 missing" true
    (Unfolding.instance_opt u ~event:f ~period:1 = None)

let test_instance_exn () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let f = Signal_graph.id g (Event.of_string_exn "f-") in
  Alcotest.check_raises "missing instance"
    (Invalid_argument
       (Printf.sprintf "Unfolding.instance: no instance of event %d in period 1" f))
    (fun () -> ignore (Unfolding.instance u ~event:f ~period:1))

let test_acyclic () =
  let g = fig1 () in
  check_arcs_go_forward "unfolding is a dag" (Unfolding.make g ~periods:5);
  let ring = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:7 () in
  check_arcs_go_forward "ring unfolding is a dag" (Unfolding.make ring ~periods:9)

let test_marked_arcs_cross_periods () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:4 in
  iter_arcs u (fun src dst aid ->
      let _, p_src = Unfolding.event_of_instance u src in
      let _, p_dst = Unfolding.event_of_instance u dst in
      let a = Signal_graph.arc (Unfolding.signal_graph u) aid in
      let expected_gap = if a.Signal_graph.marked then 1 else 0 in
      Alcotest.(check int) "period gap equals marking" expected_gap (p_dst - p_src))

let test_disengageable_once () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:4 in
  let e = Signal_graph.id g (Event.of_string_exn "e-") in
  let a = Signal_graph.id g (Event.of_string_exn "a+") in
  let e0 = Unfolding.instance u ~event:e ~period:0 in
  let count_arcs_to period =
    let target = Unfolding.instance u ~event:a ~period in
    let starts, srcs, _ = Unfolding.in_adjacency u in
    let n = ref 0 in
    for j = starts.(target) to starts.(target + 1) - 1 do
      if srcs.(j) = e0 then incr n
    done;
    !n
  in
  Alcotest.(check int) "constrains a+ period 0" 1 (count_arcs_to 0);
  Alcotest.(check int) "does not constrain a+ period 1" 0 (count_arcs_to 1);
  Alcotest.(check int) "does not constrain a+ period 3" 0 (count_arcs_to 3)

let test_initial_instances () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let names =
    List.map
      (fun i ->
        let e, p = Unfolding.event_of_instance u i in
        Alcotest.(check int) "initial instances in period 0" 0 p;
        Event.to_string (Signal_graph.event g e))
      (Unfolding.initial_instances u)
  in
  Alcotest.(check (list string)) "I_u = {e-}" [ "e-" ] names

let test_initial_instances_all_marked () =
  (* an event whose every in-arc is marked belongs to I_u *)
  let b = Signal_graph.builder () in
  Signal_graph.add_event b (Event.rise "a") Signal_graph.Repetitive;
  Signal_graph.add_event b (Event.rise "b") Signal_graph.Repetitive;
  Signal_graph.add_arc b ~marked:true ~delay:1. (Event.rise "a") (Event.rise "b");
  Signal_graph.add_arc b ~marked:false ~delay:1. (Event.rise "b") (Event.rise "a");
  let g = Signal_graph.build_exn b in
  let u = Unfolding.make g ~periods:2 in
  let names =
    List.map
      (fun i ->
        let e, _ = Unfolding.event_of_instance u i in
        Event.to_string (Signal_graph.event g e))
      (Unfolding.initial_instances u)
  in
  Alcotest.(check (list string)) "b+ starts immediately" [ "b+" ] names

let test_arc_count_growth () =
  let ring = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 () in
  let u1 = Unfolding.make ring ~periods:1 in
  let u3 = Unfolding.make ring ~periods:3 in
  (* each extra period adds at most one instance per TSG arc *)
  Alcotest.(check bool) "arcs grow linearly" true
    (arc_count u3 - arc_count u1 = 2 * Signal_graph.arc_count ring)

(* the unfolding straight from its definition (unfolding.mli): arc
   [u -> v] with marking [m] induces [u_(i-m) -> v_i] for every [i]
   where both instances exist, or only [u_0 -> v_m] when the arc is
   disengageable or [u] is non-repetitive — added arc id ascending,
   then period ascending *)
let reference_dag u =
  let g = Unfolding.signal_graph u in
  let dag = Tsg_graph.Digraph.create () in
  Tsg_graph.Digraph.add_vertices dag (Unfolding.instance_count u);
  let add aid ~src ~dst =
    match (src, dst) with
    | Some src, Some dst -> Tsg_graph.Digraph.add_arc dag ~src ~dst aid
    | _ -> ()
  in
  Array.iteri
    (fun aid (a : Signal_graph.arc) ->
      let m = if a.marked then 1 else 0 in
      let inst event period = Unfolding.instance_opt u ~event ~period in
      if a.disengageable || not (Signal_graph.is_repetitive g a.arc_src) then
        add aid ~src:(inst a.arc_src 0) ~dst:(inst a.arc_dst m)
      else
        for i = m to Unfolding.periods u - 1 do
          add aid ~src:(inst a.arc_src (i - m)) ~dst:(inst a.arc_dst i)
        done)
    (Signal_graph.arcs g);
  dag

let slice (starts, nbrs, aids) v =
  List.init (starts.(v + 1) - starts.(v)) (fun k ->
      (nbrs.(starts.(v) + k), aids.(starts.(v) + k)))

let check_csr_matches_reference name g ~periods =
  let u = Unfolding.make g ~periods in
  let dag = reference_dag u in
  let arcs = ref [] in
  Tsg_graph.Digraph.iter_arcs dag (fun src dst aid -> arcs := (src, dst, aid) :: !arcs);
  let arcs = List.rev !arcs in
  for v = 0 to Unfolding.instance_count u - 1 do
    (* out-slices: a source's arcs in enumeration order *)
    Alcotest.(check (list (pair int int)))
      (name ^ ": out-slice") (Tsg_graph.Digraph.out_arcs dag v)
      (slice (Unfolding.out_adjacency u) v);
    (* in-slices: the source-sorted sequence, stably by destination *)
    Alcotest.(check (list (pair int int)))
      (name ^ ": in-slice")
      (List.filter_map (fun (s, d, a) -> if d = v then Some (s, a) else None) arcs)
      (slice (Unfolding.in_adjacency u) v)
  done;
  Alcotest.(check (list int))
    (name ^ ": canonical topological order")
    (Tsg_graph.Topo.sort_exn dag)
    (Array.to_list (Unfolding.topological_order u))

let test_csr_matches_digraph () =
  check_csr_matches_reference "muller ring" ~periods:5
    (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:4 ());
  (* initial event, non-repetitive event, disengageable arc *)
  check_csr_matches_reference "fig1" ~periods:4 (fig1 ());
  check_csr_matches_reference "segmented" ~periods:4
    (Tsg_circuit.Generators.segmented_live_tsg ~seed:2 ~events:60 ~tokens:3 ~extra_arcs:90
       ())

let test_topological_order_cached () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let u = Unfolding.make g ~periods:3 in
  let o1 = Unfolding.topological_order u in
  let o2 = Unfolding.topological_order u in
  Alcotest.(check bool) "same array (cached)" true (o1 == o2);
  (* it really is topological *)
  let pos = Array.make (Unfolding.instance_count u) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) o1;
  iter_arcs u (fun src dst _ ->
      Alcotest.(check bool) "arc goes forward" true (pos.(src) < pos.(dst)))

let test_topo_position_inverse () =
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:4 () in
  let u = Unfolding.make g ~periods:5 in
  let order = Unfolding.topological_order u in
  let pos = Unfolding.topo_position u in
  Alcotest.(check bool) "same array (cached)" true (pos == Unfolding.topo_position u);
  Array.iteri
    (fun k v -> Alcotest.(check int) "inverse of the topological order" k pos.(v))
    order;
  (* the windowing property: nothing before an instance's position is
     reachable from it *)
  check_arcs_go_forward "arcs go to larger positions" u

let test_rejects_zero_periods () =
  let g = fig1 () in
  Alcotest.check_raises "periods >= 1" (Invalid_argument "Unfolding.make: periods must be >= 1")
    (fun () -> ignore (Unfolding.make g ~periods:0))

(* a patched unfolding's CSR views must be exactly what a fresh
   [make] of the edited graph builds, slice order included (it decides
   longest-path ties), whatever order its topological repair chose *)
let test_patch_equals_make () =
  let check_edit g ~periods ~removed ~flipped ~added =
    let arcs = Signal_graph.arcs g in
    let next = ref 0 in
    let arc_map =
      Array.mapi
        (fun a _ ->
          if List.mem a removed then -1
          else begin
            incr next;
            !next - 1
          end)
        arcs
    in
    let surviving =
      List.filter_map
        (fun a ->
          if List.mem a removed then None
          else
            let arc = arcs.(a) in
            Some
              (if List.mem a flipped then
                 { arc with Signal_graph.marked = not arc.Signal_graph.marked }
               else arc))
        (List.init (Array.length arcs) Fun.id)
    in
    let table =
      Array.of_list
        (surviving
        @ List.map (fun (src, dst) -> Signal_graph.make_arc g ~delay:1.5 src dst) added)
    in
    match Signal_graph.with_arcs g table with
    | Error _ -> ()
    | Ok g' ->
      let u = Unfolding.make g ~periods in
      let patched, delta = Unfolding.patch u g' ~arc_map in
      let fresh = Unfolding.make g' ~periods in
      let csr u =
        let a, b, c = Unfolding.in_adjacency u and d, e, f = Unfolding.out_adjacency u in
        [ a; b; c; d; e; f ]
      in
      Alcotest.(check (list (array int))) "patched CSRs = fresh CSRs" (csr fresh)
        (csr patched);
      Alcotest.(check (array (float 0.))) "delays" (Unfolding.delays fresh)
        (Unfolding.delays patched);
      check_arcs_go_forward "patched order is topological" patched;
      Alcotest.(check int) "instance diff balances the arc count"
        (arc_count fresh - arc_count u)
        (Array.length delta.Unfolding.pd_spliced
        - Array.length delta.Unfolding.pd_dropped)
  in
  List.iter
    (fun seed ->
      let g = Tsg_circuit.Generators.random_live_tsg ~seed ~events:24 ~extra_arcs:40 () in
      let m = Signal_graph.arc_count g and n = Signal_graph.event_count g in
      let periods = 6 in
      check_edit g ~periods ~removed:[ m - 1 ] ~flipped:[] ~added:[];
      check_edit g ~periods ~removed:[ n + 3 ] ~flipped:[] ~added:[ (0, n - 1) ];
      check_edit g ~periods ~removed:[] ~flipped:[ n + 5 ] ~added:[];
      check_edit g ~periods ~removed:[ 1 ] ~flipped:[ n + 2; n + 7 ]
        ~added:[ (2, n / 2); (n - 2, 1) ];
      (* two spliced arcs into one destination: in-slice order *)
      check_edit g ~periods ~removed:[] ~flipped:[] ~added:[ (5, n / 2); (2, n / 2) ];
      check_edit g ~periods ~removed:[] ~flipped:[] ~added:[ (1, n - 1); (3, n - 1) ])
    [ 1; 2; 3; 4; 5 ];
  let g = fig1 () in
  check_edit g ~periods:4 ~removed:[ 2 ] ~flipped:[] ~added:[ (0, 3) ]

let suite =
  [
    Alcotest.test_case "instance layout" `Quick test_instance_layout;
    Alcotest.test_case "instance/event roundtrip" `Quick test_instance_roundtrip;
    Alcotest.test_case "non-repetitive events instantiate once" `Quick
      test_non_repetitive_single_instance;
    Alcotest.test_case "missing instance raises" `Quick test_instance_exn;
    Alcotest.test_case "unfoldings are acyclic" `Quick test_acyclic;
    Alcotest.test_case "marked arcs cross one period" `Quick test_marked_arcs_cross_periods;
    Alcotest.test_case "disengageable arcs constrain once" `Quick test_disengageable_once;
    Alcotest.test_case "I_u of fig1" `Quick test_initial_instances;
    Alcotest.test_case "I_u includes fully-marked events" `Quick
      test_initial_instances_all_marked;
    Alcotest.test_case "arc growth per period" `Quick test_arc_count_growth;
    Alcotest.test_case "CSR views agree with the digraph" `Quick test_csr_matches_digraph;
    Alcotest.test_case "topological order is cached and valid" `Quick
      test_topological_order_cached;
    Alcotest.test_case "topo_position inverts the order" `Quick
      test_topo_position_inverse;
    Alcotest.test_case "rejects zero periods" `Quick test_rejects_zero_periods;
    Alcotest.test_case "patch builds the CSRs make builds" `Quick test_patch_equals_make;
  ]
