open Tsg

let fig1 () = Tsg_circuit.Circuit_library.fig1_tsg ()

(* Example 3 of the paper: the initial part of the timing simulation *)
let test_example3_table () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let sim = Timing_sim.simulate u in
  let t = Helpers.time_of u sim in
  List.iter
    (fun (name, period, expected) ->
      Helpers.check_float (Printf.sprintf "t(%s_%d)" name period) expected (t name period))
    [
      ("e-", 0, 0.); ("f-", 0, 3.); ("a+", 0, 2.); ("b+", 0, 4.); ("c+", 0, 6.);
      ("a-", 0, 8.); ("b-", 0, 7.); ("c-", 0, 11.);
      ("a+", 1, 13.); ("b+", 1, 12.); ("c+", 1, 16.);
    ]

(* Example 4: the b+0-initiated timing simulation *)
let test_example4_table () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let b0 =
    Unfolding.instance u ~event:(Signal_graph.id g (Event.of_string_exn "b+")) ~period:0
  in
  let sim = Timing_sim.simulate_initiated u ~at:b0 in
  let t = Helpers.time_of u sim in
  List.iter
    (fun (name, period, expected) ->
      Helpers.check_float (Printf.sprintf "t_b+(%s_%d)" name period) expected (t name period))
    [
      ("b+", 0, 0.); ("c+", 0, 2.); ("a-", 0, 4.); ("b-", 0, 3.); ("c-", 0, 7.);
      ("a+", 1, 9.); ("b+", 1, 8.); ("c+", 1, 12.);
    ];
  (* the concurrent/preceding events are zeroed and unreached *)
  List.iter
    (fun name ->
      Helpers.check_float (name ^ " zeroed") 0. (t name 0);
      let id = Signal_graph.id g (Event.of_string_exn name) in
      Alcotest.(check bool) (name ^ " unreached") false
        sim.Timing_sim.reached.(Unfolding.instance u ~event:id ~period:0))
    [ "e-"; "f-"; "a+" ]

(* Section VIII.C: the a+0-initiated simulation *)
let test_section8c_a_initiated () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  let a0 =
    Unfolding.instance u ~event:(Signal_graph.id g (Event.of_string_exn "a+")) ~period:0
  in
  let sim = Timing_sim.simulate_initiated u ~at:a0 in
  let t = Helpers.time_of u sim in
  List.iter
    (fun (name, period, expected) ->
      Helpers.check_float (Printf.sprintf "t_a+(%s_%d)" name period) expected (t name period))
    [
      ("a+", 0, 0.); ("b+", 0, 0.); ("c+", 0, 3.); ("a-", 0, 5.); ("b-", 0, 4.);
      ("c-", 0, 8.); ("a+", 1, 10.); ("b+", 1, 9.); ("c-", 1, 18.);
      ("a+", 2, 20.); ("b+", 2, 19.);
    ]

let test_average_occurrence_distances () =
  (* Section II: the sequence 2, 13/2, 23/3, 33/4, 43/5, 53/6 for a+ *)
  let g = fig1 () in
  let u = Unfolding.make g ~periods:6 in
  let sim = Timing_sim.simulate u in
  let a = Signal_graph.id g (Event.of_string_exn "a+") in
  List.iteri
    (fun i expected ->
      Helpers.check_float
        (Printf.sprintf "Delta(a+_%d)" i)
        expected
        (Timing_sim.average_occurrence_distance u sim ~event:a ~period:i))
    [ 2.; 13. /. 2.; 23. /. 3.; 33. /. 4.; 43. /. 5.; 53. /. 6. ]

let test_initiated_average_distance () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  let a = Signal_graph.id g (Event.of_string_exn "a+") in
  let sim = Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:a ~period:0) in
  Helpers.check_float "Delta_{a+0}(a+1)" 10.
    (Timing_sim.initiated_average_distance u sim ~event:a ~period:1);
  Helpers.check_float "Delta_{a+0}(a+2)" 10.
    (Timing_sim.initiated_average_distance u sim ~event:a ~period:2);
  Alcotest.check_raises "period 0 rejected"
    (Invalid_argument "Timing_sim.initiated_average_distance: period must be > 0") (fun () ->
      ignore (Timing_sim.initiated_average_distance u sim ~event:a ~period:0))

let test_occurrence_times () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  let sim = Timing_sim.simulate u in
  let c = Signal_graph.id g (Event.of_string_exn "c+") in
  Alcotest.(check int) "three periods" 3
    (Array.length (Timing_sim.occurrence_times u sim ~event:c));
  let f = Signal_graph.id g (Event.of_string_exn "f-") in
  Alcotest.(check int) "non-repetitive: one" 1
    (Array.length (Timing_sim.occurrence_times u sim ~event:f))

let test_critical_path_backtracking () =
  (* Proposition 1: the simulation time equals the longest path, and
     the recorded predecessors realise it *)
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let sim = Timing_sim.simulate u in
  let c = Signal_graph.id g (Event.of_string_exn "c-") in
  let target = Unfolding.instance u ~event:c ~period:0 in
  let path = Timing_sim.critical_path u sim ~instance:target in
  (* the path must start at a source and its delays must sum to t *)
  (match path with
  | (root, None) :: _ ->
    let degree = ref 0 in
    Unfolding.iter_in u root (fun _ _ -> incr degree);
    Alcotest.(check int) "root has no in-constraint" 0 !degree
  | _ -> Alcotest.fail "path must start with a root");
  let total =
    List.fold_left
      (fun acc (_, arc) ->
        match arc with
        | None -> acc
        | Some aid -> acc +. (Signal_graph.arc g aid).Signal_graph.delay)
      0. path
  in
  Helpers.check_float "path length = t(c-)" sim.Timing_sim.time.(target) total;
  (* e- -> a+ -> c+ -> a- -> c- is the longest path to c-_0 *)
  let names =
    List.map
      (fun (i, _) ->
        let e, p = Unfolding.event_of_instance u i in
        Printf.sprintf "%s@%d" (Event.to_string (Signal_graph.event g e)) p)
      path
  in
  Alcotest.(check (list string)) "argmax path"
    [ "e-@0"; "f-@0"; "b+@0"; "c+@0"; "a-@0"; "c-@0" ]
    names

let test_initiated_from_later_instance () =
  (* the "cyclic case" of Proposition 1: initiating at a+_1 measures
     the same distances as initiating at a+_0 shifted by one period *)
  let g = fig1 () in
  let u = Unfolding.make g ~periods:4 in
  let a = Signal_graph.id g (Event.of_string_exn "a+") in
  let from0 =
    Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:a ~period:0)
  in
  let from1 =
    Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:a ~period:1)
  in
  (* the repetitive structure repeats: t_{a1}(a_{1+k}) = t_{a0}(a_k) *)
  for k = 1 to 2 do
    Helpers.check_float
      (Printf.sprintf "t_a1(a_%d) = t_a0(a_%d)" (1 + k) k)
      from0.Timing_sim.time.(Unfolding.instance u ~event:a ~period:k)
      from1.Timing_sim.time.(Unfolding.instance u ~event:a ~period:(1 + k))
  done;
  (* instances at or before a+_1 are unreached *)
  Alcotest.(check bool) "a+_0 unreached from a+_1" false
    from1.Timing_sim.reached.(Unfolding.instance u ~event:a ~period:0)

let prop_triangular_inequality =
  (* Proposition 3: t_{e0}(e_k) >= t_{e0}(e_j) + t_{e0}(e_{k-j}) *)
  Helpers.qcheck_case ~count:60 ~name:"Proposition 3 (triangular inequality)" (fun g ->
      let border = Cut_set.border g in
      let k = 4 in
      let u = Unfolding.make g ~periods:(k + 1) in
      List.for_all
        (fun e ->
          let sim =
            Timing_sim.simulate_initiated u
              ~at:(Unfolding.instance u ~event:e ~period:0)
          in
          let t i = sim.Timing_sim.time.(Unfolding.instance u ~event:e ~period:i) in
          let ok = ref true in
          for j = 1 to k - 1 do
            if t k +. 1e-9 < t j +. t (k - j) then ok := false
          done;
          !ok)
        border)

let prop_times_monotone =
  Helpers.qcheck_case ~count:60 ~name:"occurrence times are monotone in the period" (fun g ->
      let u = Unfolding.make g ~periods:5 in
      let sim = Timing_sim.simulate u in
      List.for_all
        (fun e ->
          let times = Timing_sim.occurrence_times u sim ~event:e in
          let ok = ref true in
          for i = 0 to Array.length times - 2 do
            if times.(i) > times.(i + 1) +. 1e-9 then ok := false
          done;
          !ok)
        (Signal_graph.repetitive_events g))

let prop_initiated_below_full =
  (* an event-initiated simulation discards history, so it can only be
     earlier than the full simulation shifted by the initiation time *)
  Helpers.qcheck_case ~count:60 ~name:"event-initiated times below shifted full times"
    (fun g ->
      let u = Unfolding.make g ~periods:4 in
      let full = Timing_sim.simulate u in
      List.for_all
        (fun e ->
          let at = Unfolding.instance u ~event:e ~period:0 in
          let sim = Timing_sim.simulate_initiated u ~at in
          let ok = ref true in
          for inst = 0 to Unfolding.instance_count u - 1 do
            if sim.Timing_sim.reached.(inst) then
              if
                full.Timing_sim.time.(inst)
                +. 1e-9
                < full.Timing_sim.time.(at) +. sim.Timing_sim.time.(inst)
              then ok := false
          done;
          !ok)
        (Cut_set.border g))

(* ------------------------------------------------------------------ *)
(* Workspace arenas                                                    *)

let test_arena_nested_distinct () =
  Timing_sim.Workspace.with_arena 64 (fun outer ->
      (* the outer bracket owns its arena until it returns, so a nested
         acquisition must get another one *)
      Timing_sim.Workspace.with_arena 64 (fun inner ->
          Alcotest.(check bool) "distinct arenas" true (inner != outer)))

let test_arena_threads_and_domains () =
  (* systhreads of this domain and pool worker domains draw on the one
     free list at once, while the main thread holds an arena of its own *)
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let render r = Tsg_obs.Json.to_string (Tsg_io.Json_report.analysis_obj g r) in
  let seq = Cycle_time.analyze g in
  let n =
    Unfolding.instance_count
      (Unfolding.make g ~periods:(seq.Cycle_time.periods_simulated + 1))
  in
  let outcomes = Array.make 4 (Error "not run") in
  Timing_sim.Workspace.with_arena n (fun _held ->
      let threads =
        List.init 4 (fun i ->
            Thread.create
              (fun () ->
                outcomes.(i) <-
                  (match Cycle_time.analyze ~jobs:2 g with
                  | r -> Ok (render r)
                  | exception e -> Error (Printexc.to_string e)))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i o ->
          match o with
          | Ok s -> Alcotest.(check string) (Printf.sprintf "thread %d" i) (render seq) s
          | Error e -> Alcotest.failf "thread %d: %s" i e)
        outcomes;
      (* the arenas those analyses released wait on the list *)
      let created = Tsg_engine.Metrics.count "kernel/arenas_created" in
      Timing_sim.Workspace.with_arena n (fun _ -> ());
      Alcotest.(check int) "no fresh arena" created
        (Tsg_engine.Metrics.count "kernel/arenas_created"))

let test_arena_spare_reused () =
  (* the arena released by the first nested bracket must serve the
     second one instead of allocating a fresh full-size arena *)
  Timing_sim.Workspace.with_arena 64 (fun _outer ->
      Timing_sim.Workspace.with_arena 64 (fun _inner -> ());
      let created = Tsg_engine.Metrics.count "kernel/arenas_created" in
      let reused = Tsg_engine.Metrics.count "kernel/arenas_reused" in
      Timing_sim.Workspace.with_arena 64 (fun _inner -> ());
      Alcotest.(check int)
        "no fresh arena" created
        (Tsg_engine.Metrics.count "kernel/arenas_created");
      Alcotest.(check bool) "spare reused" true
        (Tsg_engine.Metrics.count "kernel/arenas_reused" > reused))

let test_arena_retained_capacity () =
  let big = (2 * Timing_sim.Workspace.retained_capacity) + 17 in
  Timing_sim.Workspace.with_arena big (fun ws ->
      Alcotest.(check bool) "grown to request" true
        (Timing_sim.Workspace.capacity ws >= big));
  (* releasing must have bounded the retained arrays *)
  Timing_sim.Workspace.with_arena 16 (fun ws ->
      Alcotest.(check bool) "trimmed after release" true
        (Timing_sim.Workspace.capacity ws <= Timing_sim.Workspace.retained_capacity))

let raises_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument" msg
  | exception Invalid_argument _ -> ()

(* the kernel reads the arena, the templates and [delays] unchecked,
   so its entry points check what a caller hands them *)
let test_rejects_bad_arguments () =
  let g = fig1 () in
  (* a larger unfolding first, so the reused arena is longer than
     [u] and an id past [u]'s end would not trip an array bound *)
  ignore (Timing_sim.simulate (Unfolding.make g ~periods:6));
  let u = Unfolding.make g ~periods:2 in
  let n = Unfolding.instance_count u in
  List.iter
    (fun at ->
      raises_invalid (Printf.sprintf "at %d" at) (fun () ->
          Timing_sim.simulate_initiated u ~at);
      raises_invalid (Printf.sprintf "backtrack at %d" at) (fun () ->
          Timing_sim.backtrack u ~at ~instance:0);
      raises_invalid (Printf.sprintf "simulate_many root %d" at) (fun () ->
          Timing_sim.simulate_many u ~roots:[| at |] ~f:(fun _ _ -> ())))
    [ n; n + 3; -1 ];
  List.iter
    (fun instance ->
      raises_invalid (Printf.sprintf "backtrack to %d" instance) (fun () ->
          Timing_sim.backtrack u ~at:0 ~instance))
    [ n; -1 ];
  (* the boundaries themselves are accepted *)
  ignore (Timing_sim.simulate_initiated u ~at:(n - 1));
  ignore (Timing_sim.backtrack u ~at:0 ~instance:(n - 1))

let suite =
  [
    Alcotest.test_case "Example 3 (timing simulation table)" `Quick test_example3_table;
    Alcotest.test_case "Example 4 (b+-initiated simulation)" `Quick test_example4_table;
    Alcotest.test_case "Section VIII.C (a+-initiated simulation)" `Quick
      test_section8c_a_initiated;
    Alcotest.test_case "Section II average occurrence distances" `Quick
      test_average_occurrence_distances;
    Alcotest.test_case "initiated average distances" `Quick test_initiated_average_distance;
    Alcotest.test_case "occurrence_times shapes" `Quick test_occurrence_times;
    Alcotest.test_case "critical-path backtracking (Proposition 1)" `Quick
      test_critical_path_backtracking;
    Alcotest.test_case "initiated from a later instance (Prop. 1 cyclic case)" `Quick
      test_initiated_from_later_instance;
    Alcotest.test_case "nested with_arena brackets get distinct arenas" `Quick
      test_arena_nested_distinct;
    Alcotest.test_case "spare arenas are a free list, not fresh allocations" `Quick
      test_arena_spare_reused;
    Alcotest.test_case "released arenas are trimmed to retained_capacity" `Quick
      test_arena_retained_capacity;
    prop_triangular_inequality;
    prop_times_monotone;
    prop_initiated_below_full;
    Alcotest.test_case "entry points reject bad roots, instances and delays" `Quick
      test_rejects_bad_arguments;
    Alcotest.test_case "systhreads and pool domains share the arena free list" `Quick
      test_arena_threads_and_domains;
  ]
