open Tsg

let fig1 () = Tsg_circuit.Circuit_library.fig1_tsg ()

(* [f src dst arc] over every unfolding arc, read off the out-slices *)
let iter_arcs u f =
  for v = 0 to Unfolding.instance_count u - 1 do
    Unfolding.iter_out u v (fun dst aid -> f v dst aid)
  done

let arc_count u =
  let n = ref 0 in
  iter_arcs u (fun _ _ _ -> incr n);
  !n

let check_arcs_go_forward msg u =
  let pos = Unfolding.topo_position u in
  iter_arcs u (fun src dst _ -> Alcotest.(check bool) msg true (pos src < pos dst))

let topological_order u =
  let acc = ref [] in
  Unfolding.iter_topological u (fun v -> acc := v :: !acc);
  List.rev !acc

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
    let n = ref 0 in
    Unfolding.iter_in u target (fun src _ -> if src = e0 then incr n);
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

let slice iter u v =
  let acc = ref [] in
  iter u v (fun nbr aid -> acc := (nbr, aid) :: !acc);
  List.rev !acc

let check_csr_matches_reference name g ~periods =
  let name = Printf.sprintf "%s, %d periods" name periods in
  let u = Unfolding.make g ~periods in
  let dag = reference_dag u in
  let arcs = ref [] in
  Tsg_graph.Digraph.iter_arcs dag (fun src dst aid -> arcs := (src, dst, aid) :: !arcs);
  let arcs = List.rev !arcs in
  for v = 0 to Unfolding.instance_count u - 1 do
    (* out-slices: a source's arcs in enumeration order *)
    Alcotest.(check (list (pair int int)))
      (name ^ ": out-slice") (Tsg_graph.Digraph.out_arcs dag v)
      (slice Unfolding.iter_out u v);
    (* in-slices: the source-sorted sequence, stably by destination *)
    Alcotest.(check (list (pair int int)))
      (name ^ ": in-slice")
      (List.filter_map (fun (s, d, a) -> if d = v then Some (s, a) else None) arcs)
      (slice Unfolding.iter_in u v)
  done;
  Alcotest.(check (list int))
    (name ^ ": I_u")
    (List.filter
       (fun v -> Tsg_graph.Digraph.in_arcs dag v = [])
       (List.init (Unfolding.instance_count u) Fun.id))
    (Unfolding.initial_instances u);
  (* the period-major order (unfolding.ml) is the canonical one *)
  let order = topological_order u in
  Alcotest.(check (list int))
    (name ^ ": canonical topological order")
    (Tsg_graph.Topo.sort_exn dag) order;
  List.iteri
    (fun k v -> Alcotest.(check int) (name ^ ": topo_position") k (Unfolding.topo_position u v))
    order

(* the horizons that exercise every template: one period (period 0
   alone), two (no steady state), three (one steady period, also the
   last) and the analysis horizon b + 1 *)
let check_horizons name g =
  let b = List.length (Cut_set.border g) in
  List.iter (fun periods -> check_csr_matches_reference name g ~periods) [ 1; 2; 3; b + 1 ]

let test_csr_matches_digraph () =
  check_horizons "muller ring" (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:4 ());
  (* initial event, non-repetitive event, disengageable arc *)
  check_horizons "fig1" (fig1 ());
  check_horizons "segmented"
    (Tsg_circuit.Generators.segmented_live_tsg ~seed:2 ~events:60 ~tokens:3 ~extra_arcs:90
       ())

(* the generated families as they are (every event repetitive) or
   with the prologue *)
let periodic_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* family = int_range 0 2 in
    let* prologue = oneofl [ None; Some true; Some false ] in
    let* x = int_range 0 50 and* y = int_range 0 50 in
    let g =
      match family with
      | 0 ->
        Tsg_circuit.Generators.random_live_tsg ~seed ~events:(4 + (seed mod 9))
          ~extra_arcs:(seed mod 11) ()
      | 1 ->
        Tsg_circuit.Generators.segmented_live_tsg ~seed ~events:(4 + (seed mod 20))
          ~tokens:(1 + (seed mod 4)) ~extra_arcs:(seed mod 30) ()
      | _ -> Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:(3 + (seed mod 5)) ()
    in
    return
      (match prologue with None -> g | Some front -> Helpers.with_prologue ~front ~x ~y g))

let test_periodic_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"slices and order are periodic (generated models)" ~count:90
       ~print:Helpers.tsg_print periodic_gen (fun g ->
         check_horizons "generated" g;
         true))

let test_topological_order_cached () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let u = Unfolding.make g ~periods:3 in
  (* built once: every period >= 1 reads one shared order *)
  Alcotest.(check bool) "one shared order" true
    (Unfolding.period_order u 1 == Unfolding.period_order u 2);
  (* it really is topological *)
  let pos = Array.make (Unfolding.instance_count u) 0 in
  List.iteri (fun i v -> pos.(v) <- i) (topological_order u);
  iter_arcs u (fun src dst _ ->
      Alcotest.(check bool) "arc goes forward" true (pos.(src) < pos.(dst)))

let test_topo_position_inverse () =
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:4 () in
  let u = Unfolding.make g ~periods:5 in
  List.iteri
    (fun k v ->
      Alcotest.(check int) "inverse of the topological order" k (Unfolding.topo_position u v);
      Alcotest.(check (pair int int)) "a position splits like an id"
        (Unfolding.split u k)
        (let p, li = Unfolding.split u v in
         let order = Unfolding.period_order u p in
         let rec find i = if order.(i) = li then i else find (i + 1) in
         (p, find 0)))
    (topological_order u);
  (* the windowing property: nothing before an instance's position is
     reachable from it *)
  check_arcs_go_forward "arcs go to larger positions" u

let test_rejects_zero_periods () =
  let g = fig1 () in
  Alcotest.check_raises "periods >= 1" (Invalid_argument "Unfolding.make: periods must be >= 1")
    (fun () -> ignore (Unfolding.make g ~periods:0))

(* every instance's in- and out-slice *)
let slices u =
  List.concat_map
    (fun v -> [ slice Unfolding.iter_in u v; slice Unfolding.iter_out u v ])
    (List.init (Unfolding.instance_count u) Fun.id)

(* every period's templates and order, as stored *)
let templates u =
  List.concat_map
    (fun p ->
      let rows (s : Unfolding.slices) = [ s.starts; s.ids; s.arcs; [| s.home |] ] in
      rows (Unfolding.in_slices u p) @ rows (Unfolding.out_slices u p)
      @ [ Unfolding.period_order u p ])
    (List.init (Unfolding.periods u) Fun.id)

(* a patched unfolding must be exactly what a fresh [make] of the
   edited graph builds: every slice, in order (it decides longest-path
   ties), every stored template and period order, the delays and the
   graph; an edit of delays alone changes no arc instance *)
let test_patch_equals_make () =
  let check_edit ?(delayed = []) g ~periods ~removed ~flipped ~added =
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
            let arc =
              if List.mem a delayed then
                { arc with Signal_graph.delay = arc.Signal_graph.delay +. 0.75 }
              else arc
            in
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
      Alcotest.(check (list (list (pair int int)))) "patched slices = fresh slices"
        (slices fresh) (slices patched);
      Alcotest.(check (list (array int))) "patched templates = fresh templates"
        (templates fresh) (templates patched);
      Alcotest.(check (array (float 0.))) "delays" (Unfolding.delays fresh)
        (Unfolding.delays patched);
      Alcotest.(check bool) "signal graph" true
        (Signal_graph.arcs (Unfolding.signal_graph fresh)
        = Signal_graph.arcs (Unfolding.signal_graph patched));
      if removed = [] && flipped = [] && added = [] then
        Alcotest.(check (pair int int)) "a delay edit changes no arc instance" (0, 0)
          (Array.length delta.Unfolding.pd_spliced, Array.length delta.Unfolding.pd_dropped);
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
      (* one period, two (no steady state), three, and six *)
      List.iter
        (fun periods ->
          check_edit g ~periods ~removed:[ m - 1 ] ~flipped:[] ~added:[];
          check_edit g ~periods ~removed:[ n + 3 ] ~flipped:[] ~added:[ (0, n - 1) ];
          check_edit g ~periods ~removed:[] ~flipped:[ n + 5 ] ~added:[];
          check_edit g ~periods ~removed:[ 1 ] ~flipped:[ n + 2; n + 7 ]
            ~added:[ (2, n / 2); (n - 2, 1) ];
          (* two spliced arcs into one destination: in-slice order *)
          check_edit g ~periods ~removed:[] ~flipped:[] ~added:[ (5, n / 2); (2, n / 2) ];
          check_edit g ~periods ~removed:[] ~flipped:[] ~added:[ (1, n - 1); (3, n - 1) ];
          (* delays alone, and beside structural edits *)
          check_edit g ~periods ~removed:[] ~flipped:[] ~added:[] ~delayed:[ 0; n + 1; m - 1 ];
          check_edit g ~periods ~removed:[ 2 ] ~flipped:[ n + 4 ] ~added:[]
            ~delayed:[ 0; n + 4; m - 1 ])
        [ 1; 2; 3; 6 ])
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
    test_periodic_law;
    Alcotest.test_case "topological order is cached and valid" `Quick
      test_topological_order_cached;
    Alcotest.test_case "topo_position inverts the order" `Quick
      test_topo_position_inverse;
    Alcotest.test_case "rejects zero periods" `Quick test_rejects_zero_periods;
    Alcotest.test_case "patch builds the CSRs make builds" `Quick test_patch_equals_make;
  ]
