open Tsg

let fig1 () = Tsg_circuit.Circuit_library.fig1_tsg ()

(* Section VIII.C: the full analysis of the C-element oscillator *)
let test_fig1_cycle_time () =
  let g = fig1 () in
  let r = Cycle_time.analyze g in
  Helpers.check_float "lambda = 10" 10. r.Cycle_time.cycle_time;
  Alcotest.(check (list string)) "border" [ "a+"; "b+" ]
    (Helpers.event_names g r.Cycle_time.border);
  Alcotest.(check int) "two periods simulated" 2 r.Cycle_time.periods_simulated;
  Alcotest.(check string) "critical border event" "a+"
    (Event.to_string (Signal_graph.event g r.Cycle_time.critical_event));
  Alcotest.(check bool) "walk consistent" true (Cycle_time.check_walk g r)

(* the Delta tables of Section VIII.C:
   a+: 10/1 = 10, 20/2 = 10;  b+: 8/1 = 8, 18/2 = 9 *)
let test_fig1_delta_tables () =
  let g = fig1 () in
  let r = Cycle_time.analyze g in
  let trace name =
    List.find
      (fun t -> Event.to_string (Signal_graph.event g t.Cycle_time.border_event) = name)
      r.Cycle_time.traces
  in
  let samples t = List.map (fun s -> (s.Cycle_time.time, s.Cycle_time.average)) t.Cycle_time.samples in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "a+ samples" [ (10., 10.); (20., 10.) ]
    (samples (trace "a+"));
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "b+ samples" [ (8., 8.); (18., 9.) ]
    (samples (trace "b+"))

(* the paper's Section VIII.C text names a+ -> c+ -> b- -> c- -> a+ as
   the critical cycle, but that cycle has length 8; Example 6 and
   Section II identify C1 = a+ -> c+ -> a- -> c- -> a+ (length 10) as
   the critical cycle, which is what backtracking must produce *)
let test_fig1_critical_cycle () =
  let g = fig1 () in
  let r = Cycle_time.analyze g in
  match r.Cycle_time.critical_cycles with
  | [ c ] ->
    Helpers.check_float "length 10" 10. c.Cycles.length;
    Alcotest.(check int) "one period" 1 c.Cycles.occurrence_period;
    let names = List.sort compare (Helpers.event_names g c.Cycles.events) in
    Alcotest.(check (list string)) "the events of C1" [ "a+"; "a-"; "c+"; "c-" ] names
  | other -> Alcotest.failf "expected exactly one critical cycle, got %d" (List.length other)

(* with the minimum cut set {c+} one period suffices (Section VIII.C) *)
let test_fig1_one_period_suffices () =
  let g = fig1 () in
  let r = Cycle_time.analyze ~periods:1 g in
  Helpers.check_float "lambda from one period" 10. r.Cycle_time.cycle_time

(* Section VIII.D: the Muller ring *)
let test_muller_ring () =
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 () in
  let r = Cycle_time.analyze g in
  Helpers.check_float "lambda = 20/3" (20. /. 3.) r.Cycle_time.cycle_time;
  Alcotest.(check int) "four border events, four periods" 4 r.Cycle_time.periods_simulated;
  Alcotest.(check bool) "walk consistent" true (Cycle_time.check_walk g r);
  (* the critical cycle covers three periods: eps = 3 with length 20 *)
  List.iter
    (fun c ->
      Helpers.check_float "effective length 20/3" (20. /. 3.) (Cycles.effective_length c))
    r.Cycle_time.critical_cycles

(* the t and Delta rows of the Section VIII.D table *)
let test_muller_ring_table () =
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 () in
  let u = Unfolding.make g ~periods:11 in
  let a = Signal_graph.id g (Event.of_string_exn "a+") in
  let sim = Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:a ~period:0) in
  let expected_t = [ 6.; 13.; 20.; 26.; 33.; 40.; 46.; 53.; 60.; 66. ] in
  List.iteri
    (fun i expected ->
      Helpers.check_float
        (Printf.sprintf "t_a+0(a+%d)" (i + 1))
        expected
        sim.Timing_sim.time.(Unfolding.instance u ~event:a ~period:(i + 1)))
    expected_t;
  (* delta increments repeat with pattern 6, 7, 7 *)
  let increments =
    List.mapi
      (fun i t -> if i = 0 then t else t -. List.nth expected_t (i - 1))
      expected_t
  in
  Alcotest.(check (list (float 1e-9))) "delta pattern 6,7,7 repeating"
    [ 6.; 7.; 7.; 6.; 7.; 7.; 6.; 7.; 7.; 6. ]
    increments

let test_muller_ring_sizes () =
  List.iter
    (fun stages ->
      let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages () in
      Alcotest.(check int) "events" (4 * stages) (Signal_graph.event_count g);
      Alcotest.(check int) "arcs" (6 * stages) (Signal_graph.arc_count g);
      Alcotest.(check bool) "analyzable" true (Cycle_time.cycle_time g > 0.))
    [ 3; 4; 5; 8; 12 ]

let test_async_stack () =
  let g = Tsg_circuit.Circuit_library.async_stack_tsg () in
  Alcotest.(check int) "66 events (paper size)" 66 (Signal_graph.event_count g);
  Alcotest.(check int) "112 arcs (paper size)" 112 (Signal_graph.arc_count g);
  let r = Cycle_time.analyze g in
  Alcotest.(check bool) "positive cycle time" true (r.Cycle_time.cycle_time > 0.);
  Alcotest.(check bool) "walk consistent" true (Cycle_time.check_walk g r);
  Helpers.check_float "agrees with exhaustive enumeration"
    (fst (Tsg_baselines.Exhaustive.cycle_time g))
    r.Cycle_time.cycle_time

let test_simple_ring_formula () =
  (* a plain ring: lambda = delay * n / tokens *)
  List.iter
    (fun (n, k) ->
      let g = Tsg_circuit.Generators.ring_tsg ~events:n ~tokens:k () in
      Helpers.check_float
        (Printf.sprintf "ring(%d,%d)" n k)
        (float_of_int n /. float_of_int k)
        (Cycle_time.cycle_time g))
    [ (3, 1); (6, 2); (10, 3); (12, 4); (7, 7) ]

let test_not_analyzable () =
  let b = Signal_graph.builder () in
  Signal_graph.add_event b (Event.fall "e") Signal_graph.Initial;
  Signal_graph.add_event b (Event.fall "f") Signal_graph.Non_repetitive;
  Signal_graph.add_arc b ~delay:1. (Event.fall "e") (Event.fall "f");
  let g = Signal_graph.build_exn b in
  Alcotest.check_raises "acyclic graph"
    (Cycle_time.Not_analyzable "the graph has no repetitive events") (fun () ->
      ignore (Cycle_time.analyze g))

(* Section VIII.A: multiple events of the same signal — a double-pulse
   generator where p rises and falls twice per handshake with q *)
let double_pulse () =
  let p1p = Event.rise ~occurrence:1 "p"
  and p1m = Event.fall ~occurrence:1 "p"
  and p2p = Event.rise ~occurrence:2 "p"
  and p2m = Event.fall ~occurrence:2 "p"
  and qp = Event.rise "q"
  and qm = Event.fall "q" in
  Signal_graph.of_arcs
    ~events:(List.map (fun e -> (e, Signal_graph.Repetitive)) [ p1p; p1m; p2p; p2m; qp; qm ])
    ~arcs:
      [
        (p1p, p1m, 2., false);
        (p1m, p2p, 1., false);
        (p2p, p2m, 2., false);
        (p2m, qp, 1., false);
        (qp, qm, 3., false);
        (qm, p1p, 1., true);
      ]

let test_multiple_events_per_signal () =
  let g = double_pulse () in
  (* one simple cycle of total delay 10, one token *)
  Helpers.check_float "lambda" 10. (Cycle_time.cycle_time g);
  (* the signal p genuinely owns four distinct events *)
  Alcotest.(check int) "six events" 6 (Signal_graph.event_count g);
  Alcotest.(check (list string)) "two signals" [ "p"; "q" ] (Signal_graph.signals g);
  (* switch-over still holds: p alternates +,-,+,- per period *)
  let d = Marking.check_dynamics ~rounds:40 g in
  Alcotest.(check bool) "switch-over across occurrences" true d.Marking.switch_over_ok;
  Alcotest.(check bool) "no auto-concurrency" true d.Marking.auto_concurrency_free

let test_zero_delays () =
  (* all delays zero: lambda = 0, still well-defined *)
  let g = Tsg_circuit.Generators.ring_tsg ~delay:0. ~events:4 ~tokens:2 () in
  Helpers.check_float "zero cycle time" 0. (Cycle_time.cycle_time g)

let prop_structured_agreement =
  (* structured circuit families (Muller rings with random pin delays,
     handshake rings, fork/joins, plain rings): the algorithm, the
     baselines, the max-plus spectral radius and the steady-state
     detector must all see the same cycle time *)
  Helpers.qcheck_structured_case ~count:60 ~name:"structured families: all views agree"
    (fun g ->
      let r = Cycle_time.analyze g in
      let lambda = r.Cycle_time.cycle_time in
      Cycle_time.check_walk g r
      && Helpers.float_close lambda (Tsg_baselines.Karp.cycle_time g)
      && Helpers.float_close lambda (Tsg_maxplus.Of_signal_graph.cycle_time g)
      && (match Steady_state.detect g with
         | Some s -> Helpers.float_close ~tol:1e-6 lambda s.Steady_state.lambda
         | None -> false))

let prop_agrees_with_exhaustive =
  Helpers.qcheck_case ~count:100 ~name:"lambda agrees with exhaustive enumeration" (fun g ->
      let r = Cycle_time.analyze g in
      let expected, _ = Tsg_baselines.Exhaustive.cycle_time g in
      Helpers.float_close ~tol:1e-9 expected r.Cycle_time.cycle_time)

let prop_walk_always_consistent =
  Helpers.qcheck_case ~count:100 ~name:"backtracked walk always realises lambda" (fun g ->
      let r = Cycle_time.analyze g in
      Cycle_time.check_walk g r)

let prop_deltas_bounded_by_lambda =
  (* Proposition 8: every collected average occurrence distance is at
     most the cycle time, and the maximum is attained *)
  Helpers.qcheck_case ~count:100 ~name:"Proposition 8 (Deltas bounded by lambda)" (fun g ->
      let r = Cycle_time.analyze g in
      let lambda = r.Cycle_time.cycle_time in
      let all_samples =
        List.concat_map (fun t -> t.Cycle_time.samples) r.Cycle_time.traces
      in
      List.for_all (fun s -> s.Cycle_time.average <= lambda +. 1e-9) all_samples
      && List.exists (fun s -> Helpers.float_close s.Cycle_time.average lambda) all_samples)

let prop_more_periods_stable =
  (* simulating longer than b periods never changes the answer *)
  Helpers.qcheck_case ~count:60 ~name:"extra periods do not change lambda" (fun g ->
      let r = Cycle_time.analyze g in
      let r' = Cycle_time.analyze ~periods:(r.Cycle_time.periods_simulated + 3) g in
      Helpers.float_close r.Cycle_time.cycle_time r'.Cycle_time.cycle_time)

(* ------------------------------------------------------------------ *)
(* The border route                                                    *)

let bits = Int64.bits_of_float

(* two reports agree bit for bit: every sample's time and average, λ
   and the critical sample and walk *)
let same_report (r : Cycle_time.report) (r' : Cycle_time.report) =
  let table (r : Cycle_time.report) =
    List.map
      (fun (t : Cycle_time.border_trace) ->
        ( t.border_event,
          List.map
            (fun (s : Cycle_time.sample) -> (s.period, bits s.time, bits s.average))
            t.samples ))
      r.traces
  in
  table r = table r'
  && bits r.cycle_time = bits r'.cycle_time
  && r.critical_event = r'.critical_event
  && r.critical_period = r'.critical_period
  && r.critical_walk = r'.critical_walk

let routes_agree ?periods ?jobs g =
  same_report
    (Cycle_time.Internal.analyze_by Border ?periods ?jobs g)
    (Cycle_time.Internal.analyze_by Kernel ?periods ?jobs g)

let segmented ~seed ~events ~tokens ~extra_arcs =
  Tsg_circuit.Generators.segmented_live_tsg ~seed ~events ~tokens ~extra_arcs ()

let route =
  Alcotest.testable
    (fun ppf (r : Cycle_time.Internal.route) ->
      Fmt.string ppf (match r with Border -> "border" | Kernel -> "kernel"))
    ( = )

(* named models on both sides of the switch, with initial events and
   once arcs among them (fig1 and a segmented model with a prologue) *)
let test_routes_agree_named () =
  List.iter
    (fun (name, (expected : Cycle_time.Internal.route), g) ->
      Alcotest.check route (name ^ ": switch") expected (Cycle_time.Internal.route g);
      Alcotest.(check bool) (name ^ ": routes agree") true (routes_agree g);
      Alcotest.(check bool) (name ^ ": at jobs 2") true (routes_agree ~jobs:2 g);
      Alcotest.(check bool)
        (name ^ ": analyze takes the switch's route") true
        (same_report (Cycle_time.analyze g) (Cycle_time.Internal.analyze_by Kernel g)))
    [
      ("fig1", Border, fig1 ());
      ("ring5", Border, Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ());
      ("segmented", Border, segmented ~seed:3 ~events:400 ~tokens:8 ~extra_arcs:600);
      ( "segmented with a prologue",
        Border,
        Helpers.with_prologue ~front:true ~x:5 ~y:17
          (segmented ~seed:4 ~events:150 ~tokens:5 ~extra_arcs:200) );
      ("stack", Kernel, Tsg_circuit.Circuit_library.async_stack_tsg ());
      ("muller ring", Kernel, Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:12 ());
      ( "random dense",
        Kernel,
        Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:30 ~extra_arcs:60 () );
    ]

(* random and segmented models, with and without a prologue, at the
   default horizon and at overrides *)
let route_law_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* family = int_range 0 1 in
    let* prologue = oneofl [ None; Some true; Some false ] in
    let* x = int_range 0 50 and* y = int_range 0 50 in
    let* periods = opt (int_range 1 12) in
    let g =
      if family = 0 then
        Tsg_circuit.Generators.random_live_tsg ~seed ~events:(3 + (seed mod 10))
          ~extra_arcs:(seed mod 25) ()
      else
        segmented ~seed ~events:(10 + (seed mod 90)) ~tokens:(1 + (seed mod 6))
          ~extra_arcs:(seed mod 150)
    in
    let g =
      match prologue with None -> g | Some front -> Helpers.with_prologue ~front ~x ~y g
    in
    return (g, periods))

let prop_routes_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"border route equals the kernel bit for bit" ~count:150
       ~print:(fun (g, periods) ->
         Printf.sprintf "periods %s\n%s"
           (match periods with None -> "b" | Some p -> string_of_int p)
           (Helpers.tsg_print g))
       route_law_gen
       (fun (g, periods) -> routes_agree ?periods g))

(* a delay that is no multiple of a small power of two, or sums that
   pass 2^53, fail the exact-sum test and keep the kernel *)
let test_inexact_takes_kernel () =
  let g = segmented ~seed:5 ~events:200 ~tokens:6 ~extra_arcs:300 in
  let with_first d =
    let delays = Array.map (fun (a : Signal_graph.arc) -> a.delay) (Signal_graph.arcs g) in
    delays.(0) <- d;
    Signal_graph.with_delays g delays
  in
  Alcotest.check route "integer delays" Border (Cycle_time.Internal.route g);
  Alcotest.check route "a 0.25 delay" Border (Cycle_time.Internal.route (with_first 0.25));
  Alcotest.check route "a 0.1 delay" Kernel (Cycle_time.Internal.route (with_first 0.1));
  Alcotest.check route "sums past 2^53" Kernel
    (Cycle_time.Internal.route (with_first (Float.ldexp 1. 51)));
  let taken g =
    let before = Tsg_engine.Metrics.count "analyze/border_route" in
    ignore (Cycle_time.analyze g);
    Tsg_engine.Metrics.count "analyze/border_route" - before
  in
  Alcotest.(check int) "counted" 1 (taken g);
  Alcotest.(check int) "not counted" 0 (taken (with_first 0.1))

(* Propositions 7-8, checked: simulating 2b periods finds the same λ,
   bit for bit, as b (every delay an integer, so every sum is exact) *)
let test_two_b_periods () =
  List.iter
    (fun (name, g) ->
      let r = Cycle_time.analyze g in
      let r2 = Cycle_time.analyze ~periods:(2 * List.length r.Cycle_time.border) g in
      Alcotest.(check int64)
        name (bits r.Cycle_time.cycle_time) (bits r2.Cycle_time.cycle_time))
    [
      ("fig1", fig1 ());
      ("segmented 400/8", segmented ~seed:3 ~events:400 ~tokens:8 ~extra_arcs:600);
      ("segmented 2000/28", segmented ~seed:1 ~events:2000 ~tokens:28 ~extra_arcs:4000);
      ( "segmented with a prologue",
        Helpers.with_prologue ~front:false ~x:3 ~y:40
          (segmented ~seed:9 ~events:300 ~tokens:7 ~extra_arcs:500) );
      ("gen-10k", Option.get (Tsg_io.Service.builtin "gen-10k"));
      ( "random 30",
        Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:30 ~extra_arcs:60 () );
      ( "random 12 with a prologue",
        Helpers.with_prologue ~front:true ~x:2 ~y:9
          (Tsg_circuit.Generators.random_live_tsg ~seed:21 ~events:12 ~extra_arcs:20 ()) );
      ("muller ring 12", Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:12 ());
      ("stack", Tsg_circuit.Circuit_library.async_stack_tsg ());
    ]

let suite =
  [
    Alcotest.test_case "fig1 analysis (Section VIII.C)" `Quick test_fig1_cycle_time;
    Alcotest.test_case "fig1 Delta tables" `Quick test_fig1_delta_tables;
    Alcotest.test_case "fig1 critical cycle is C1" `Quick test_fig1_critical_cycle;
    Alcotest.test_case "one period suffices with a minimum cut set" `Quick
      test_fig1_one_period_suffices;
    Alcotest.test_case "Muller ring analysis (Section VIII.D)" `Quick test_muller_ring;
    Alcotest.test_case "Muller ring t/Delta table" `Quick test_muller_ring_table;
    Alcotest.test_case "Muller ring sizes" `Quick test_muller_ring_sizes;
    Alcotest.test_case "asynchronous stack (66 events, 112 arcs)" `Quick test_async_stack;
    Alcotest.test_case "plain rings follow n/k" `Quick test_simple_ring_formula;
    Alcotest.test_case "graphs without repetitive events rejected" `Quick test_not_analyzable;
    Alcotest.test_case "multiple events per signal (Section VIII.A)" `Quick
      test_multiple_events_per_signal;
    Alcotest.test_case "zero delays" `Quick test_zero_delays;
    prop_structured_agreement;
    prop_agrees_with_exhaustive;
    prop_walk_always_consistent;
    prop_deltas_bounded_by_lambda;
    prop_more_periods_stable;
    Alcotest.test_case "border route: named models on both sides" `Quick
      test_routes_agree_named;
    prop_routes_agree;
    Alcotest.test_case "inexact delays take the kernel" `Quick test_inexact_takes_kernel;
    Alcotest.test_case "Propositions 7-8: 2b periods find the same lambda" `Quick
      test_two_b_periods;
  ]
