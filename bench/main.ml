(* The paper-reproduction tables.

   Regenerates every evaluation artefact of the paper (the experiment
   index E1-E13 and A1-A4 of DESIGN.md), with wall-clock columns where
   the paper makes a timing claim.  Asserts inside the tables (baseline
   agreement, cache hits) make a wrong answer exit non-zero; E12 prints
   MATCH or MISMATCH per extracted circuit.

     dune exec bench/main.exe

   Per-phase analysis timings are [tsa bench]'s job; the served path
   is timed by fleetbench. *)

open Tsg

let section id title =
  Fmt.pr "@.======================================================================@.";
  Fmt.pr "%s  %s@." id title;
  Fmt.pr "======================================================================@.@."

(* wall clock, not Sys.time: CPU time sums across domains, so
   multi-domain runs would look slower the better they parallelise *)
let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let y = f () in
  (y, (Unix.gettimeofday () -. t0) *. 1000.)

let fig1 = Tsg_circuit.Circuit_library.fig1_tsg ()
let ring5 = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ()
let stack66 = Tsg_circuit.Circuit_library.async_stack_tsg ()

let named_instances g u names =
  List.map (fun (n, p) -> (Signal_graph.id g (Event.of_string_exn n), p)) names
  |> List.map (fun (e, p) -> (e, p, Unfolding.instance u ~event:e ~period:p))

(* ------------------------------------------------------------------ *)
(* E1: Example 3 — the initial timing simulation table                 *)

let table_e1 () =
  section "E1" "Initial timing simulation of the C-element oscillator (Example 3)";
  let u = Unfolding.make fig1 ~periods:2 in
  let sim = Timing_sim.simulate u in
  let events =
    List.map
      (fun (e, p, _) -> (e, p))
      (named_instances fig1 u
         [
           ("e-", 0); ("f-", 0); ("a+", 0); ("b+", 0); ("c+", 0); ("a-", 0);
           ("b-", 0); ("c-", 0); ("a+", 1); ("b+", 1); ("c+", 1);
         ])
  in
  Fmt.pr "%t@." (Tsg_io.Report.pp_simulation_table u sim ~events);
  Fmt.pr "paper row:  0 3 2 4 6 8 7 11 13 12 16@."

(* E2: Example 4 — the b+0-initiated simulation                        *)

let table_e2 () =
  section "E2" "b+-initiated timing simulation (Example 4)";
  let u = Unfolding.make fig1 ~periods:2 in
  let b0 = Unfolding.instance u ~event:(Signal_graph.id fig1 (Event.of_string_exn "b+")) ~period:0 in
  let sim = Timing_sim.simulate_initiated u ~at:b0 in
  let events =
    List.map
      (fun (e, p, _) -> (e, p))
      (named_instances fig1 u
         [ ("b+", 0); ("c+", 0); ("a-", 0); ("b-", 0); ("c-", 0); ("a+", 1); ("b+", 1); ("c+", 1) ])
  in
  Fmt.pr "%t@." (Tsg_io.Report.pp_simulation_table u sim ~events);
  Fmt.pr "paper row:  0 2 4 3 7 9 8 12@."

(* E3: Fig. 1c and Fig. 1d — timing diagrams                           *)

let table_e3 () =
  section "E3" "Timing diagrams (Fig. 1c full / Fig. 1d a+-initiated)";
  let u = Unfolding.make fig1 ~periods:8 in
  Fmt.pr "full simulation:@.";
  print_string (Tsg_io.Timing_diagram.render u (Timing_sim.simulate u));
  let a0 = Unfolding.instance u ~event:(Signal_graph.id fig1 (Event.of_string_exn "a+")) ~period:0 in
  Fmt.pr "@.a+-initiated (history discarded):@.";
  print_string (Tsg_io.Timing_diagram.render u (Timing_sim.simulate_initiated u ~at:a0))

(* E4: Examples 5-6 — simple cycles and effective lengths              *)

let table_e4 () =
  section "E4" "Simple cycles of the oscillator (Examples 5-6)";
  List.iter
    (fun c ->
      Fmt.pr "%a   C = %g  eps = %d  C/eps = %g@." (Cycles.pp_cycle fig1) c c.Cycles.length
        c.Cycles.occurrence_period (Cycles.effective_length c))
    (Cycles.simple_cycles fig1);
  Fmt.pr "@.paper: lengths {10, 8, 8, 6}, all eps = 1, lambda = max = 10@."

(* E5: Example 7 — border and cut sets                                 *)

let table_e5 () =
  section "E5" "Cut sets (Example 7)";
  let names ids = String.concat ", " (List.map (fun e -> Event.to_string (Signal_graph.event fig1 e)) ids) in
  Fmt.pr "border set:        {%s}   (paper: {a+, b+})@." (names (Cut_set.border fig1));
  Fmt.pr "greedy small cut:  {%s}   (paper notes {c+} and {c-} are minimum)@."
    (names (Cut_set.greedy_small fig1));
  let check s =
    let ids = List.map (fun n -> Signal_graph.id fig1 (Event.of_string_exn n)) s in
    Fmt.pr "is_cut_set {%s} = %b@." (String.concat ", " s) (Cut_set.is_cut_set fig1 ids)
  in
  List.iter check [ [ "c+" ]; [ "c-" ]; [ "a-"; "b-" ]; [ "a+" ] ]

(* E6: Section VIII.C — the full analysis                              *)

let table_e6 () =
  section "E6" "Cycle-time analysis of the oscillator (Section VIII.C)";
  let report = Cycle_time.analyze fig1 in
  Fmt.pr "%a@." (Tsg_io.Report.pp_report fig1) report;
  Fmt.pr "paper: Delta tables {10, 10} and {8, 9}; lambda = 10.@.";
  Fmt.pr "note:  Section VIII.C prints the critical cycle as a+ c+ b- c- (length 8),@.";
  Fmt.pr "       but Example 6 and Section II give C1 = a+ c+ a- c- (length 10);@.";
  Fmt.pr "       backtracking correctly recovers C1 (the text is a typo).@."

(* E7: Section VIII.D — the Muller ring                                *)

let table_e7 () =
  section "E7" "Muller ring of five C-elements (Section VIII.D)";
  let report = Cycle_time.analyze ring5 in
  Fmt.pr "%a@." (Tsg_io.Report.pp_report ring5) report;
  let u = Unfolding.make ring5 ~periods:11 in
  let a = Signal_graph.id ring5 (Event.of_string_exn "a+") in
  let sim = Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:a ~period:0) in
  Fmt.pr "ten-period extension of the paper's table:@.";
  Fmt.pr "i          ";
  for i = 1 to 10 do Fmt.pr "%7d" i done;
  Fmt.pr "@.t_a+0(a+i) ";
  for i = 1 to 10 do
    Fmt.pr "%7g" sim.Timing_sim.time.(Unfolding.instance u ~event:a ~period:i)
  done;
  Fmt.pr "@.Delta      ";
  for i = 1 to 10 do
    Fmt.pr "%7.4g" (Timing_sim.initiated_average_distance u sim ~event:a ~period:i)
  done;
  Fmt.pr "@.paper t:        6     13     20     26     33     40     46     53     60     66@.";
  Fmt.pr "paper Delta:    6    6.5   6.67    6.5    6.6   6.67   6.57   6.63   6.67    6.6@."

(* E8: Fig. 4 — asymptotics on vs. off the critical cycle              *)

let table_e8 () =
  section "E8" "Asymptotic behaviour of Delta (Fig. 4)";
  let periods = [ 1; 2; 3; 4; 5; 8; 12; 20; 40 ] in
  let u = Unfolding.make fig1 ~periods:41 in
  let series name =
    let e = Signal_graph.id fig1 (Event.of_string_exn name) in
    let sim = Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:e ~period:0) in
    List.map (fun i -> Timing_sim.initiated_average_distance u sim ~event:e ~period:i) periods
  in
  Fmt.pr "periods:              ";
  List.iter (fun i -> Fmt.pr "%7d" i) periods;
  Fmt.pr "@.a+ (on critical):     ";
  List.iter (fun d -> Fmt.pr "%7.3f" d) (series "a+");
  Fmt.pr "@.b+ (off critical):    ";
  List.iter (fun d -> Fmt.pr "%7.3f" d) (series "b+");
  Fmt.pr
    "@.@.shape check (paper Fig. 4): the on-critical event reaches the cycle@.\
     time 10 at a finite period and stays; the off-critical event only@.\
     approaches it from below.@."

(* E9: Section VIII.B — the 66-event stack runtime                     *)

let table_e9 () =
  section "E9" "Asynchronous stack runtime (Section VIII.B)";
  Fmt.pr "stack controller: %d events, %d arcs (paper: 66 events, 112 arcs)@."
    (Signal_graph.event_count stack66) (Signal_graph.arc_count stack66);
  let report, first = wall_ms (fun () -> Cycle_time.analyze stack66) in
  let repeats = 200 in
  let (), total = wall_ms (fun () -> for _ = 1 to repeats do ignore (Cycle_time.analyze stack66) done) in
  Fmt.pr "lambda = %a, border size b = %d@." Tsg_io.Report.pp_rational
    report.Cycle_time.cycle_time
    (List.length report.Cycle_time.border);
  Fmt.pr "analysis wall time: %.3f ms first run, %.4f ms steady state@." first
    (total /. float_of_int repeats);
  Fmt.pr "paper: 74 CPU ms on a DEC 5000 (1994); shape check: well under that.@."

(* E10: complexity scaling (Sections I/VII)                            *)

let table_e10 () =
  section "E10" "Scaling: O(b^2 m) vs the classical baselines";
  Fmt.pr "constant-b family (plain rings, two tokens: b = 2, the paper's@.";
  Fmt.pr "\"typically b << n\" regime where the algorithm is linear):@.";
  Fmt.pr "%8s %8s %6s %12s %12s@." "events" "arcs" "b" "tsa ms" "karp ms";
  List.iter
    (fun n ->
      let g = Tsg_circuit.Generators.ring_tsg ~events:n ~tokens:2 () in
      let b = List.length (Cut_set.border g) in
      let l0, t_tsa = wall_ms (fun () -> Cycle_time.cycle_time g) in
      let l1, t_karp = wall_ms (fun () -> Tsg_baselines.Karp.cycle_time g) in
      assert (abs_float (l0 -. l1) < 1e-6);
      Fmt.pr "%8d %8d %6d %12.3f %12.3f@." n (Signal_graph.arc_count g) b t_tsa t_karp)
    [ 1_000; 4_000; 16_000; 64_000; 256_000 ];
  Fmt.pr "@.Muller rings (every stage contributes a border event, b ~ n: the@.";
  Fmt.pr "paper's worst-case O(n^2 m) regime):@.";
  Fmt.pr "%8s %8s %8s %6s %12s %12s %12s %12s %12s@." "stages" "events" "arcs" "b" "tsa ms"
    "karp ms" "howard ms" "lawler ms" "maxplus ms";
  List.iter
    (fun stages ->
      let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages () in
      let b = List.length (Cut_set.border g) in
      let l0, t_tsa = wall_ms (fun () -> Cycle_time.cycle_time g) in
      let l1, t_karp = wall_ms (fun () -> Tsg_baselines.Karp.cycle_time g) in
      let l2, t_how = wall_ms (fun () -> Tsg_baselines.Howard.cycle_time g) in
      let l3, t_law = wall_ms (fun () -> Tsg_baselines.Lawler.cycle_time g) in
      let l4, t_mp = wall_ms (fun () -> Tsg_maxplus.Of_signal_graph.cycle_time g) in
      assert (abs_float (l0 -. l1) < 1e-6 && abs_float (l0 -. l2) < 1e-6
              && abs_float (l0 -. l3) < 1e-4 && abs_float (l0 -. l4) < 1e-6);
      Fmt.pr "%8d %8d %8d %6d %12.3f %12.3f %12.3f %12.3f %12.3f@." stages
        (Signal_graph.event_count g) (Signal_graph.arc_count g) b t_tsa t_karp t_how
        t_law t_mp)
    [ 8; 16; 32; 64; 128; 256 ];
  Fmt.pr "@.handshake rings (b grows with the size: the b^2 regime):@.";
  Fmt.pr "%8s %8s %8s %6s %12s %12s@." "cells" "events" "arcs" "b" "tsa ms" "karp ms";
  List.iter
    (fun cells ->
      let g = Tsg_circuit.Circuit_library.handshake_ring_tsg ~cells () in
      let b = List.length (Cut_set.border g) in
      let _, t_tsa = wall_ms (fun () -> Cycle_time.cycle_time g) in
      let _, t_karp = wall_ms (fun () -> Tsg_baselines.Karp.cycle_time g) in
      Fmt.pr "%8d %8d %8d %6d %12.3f %12.3f@." cells (Signal_graph.event_count g)
        (Signal_graph.arc_count g) b t_tsa t_karp)
    [ 8; 16; 32; 64; 128 ];
  Fmt.pr "@.exhaustive enumeration blow-up (complete graphs, Section II strawman):@.";
  Fmt.pr "%8s %8s %10s %14s %12s@." "events" "arcs" "cycles" "exhaustive ms" "tsa ms";
  List.iter
    (fun n ->
      let g = Tsg_circuit.Generators.complete_tsg ~events:n () in
      let cycles, t_exh = wall_ms (fun () -> Tsg_baselines.Exhaustive.cycle_count g) in
      let _, t_tsa = wall_ms (fun () -> Cycle_time.cycle_time g) in
      Fmt.pr "%8d %8d %10d %14.3f %12.3f@." n (Signal_graph.arc_count g) cycles t_exh t_tsa)
    [ 4; 5; 6; 7; 8 ];
  Fmt.pr "@.shape check: near-linear growth for the timing-simulation algorithm@.";
  Fmt.pr "on constant-b families, quadratic-in-b growth on the handshake rings,@.";
  Fmt.pr "and super-exponential cost for exhaustive enumeration.@."

(* E11: ring occupancy ablation                                        *)

let table_e11 () =
  section "E11" "Muller-ring occupancy ablation (extension of Section VIII.D)";
  Fmt.pr "%8s %12s %22s@." "tokens" "cycle time" "cycle time per token";
  List.iter
    (fun k ->
      let high_stages = List.init k (fun j -> ((j * 12 / k) + 11) mod 12) in
      match Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:12 ~high_stages () with
      | g ->
        let lambda = Cycle_time.cycle_time g in
        Fmt.pr "%8d %12.4f %22.4f@." k lambda (lambda /. float_of_int k)
      | exception Invalid_argument _ -> Fmt.pr "%8d   (deadlocked configuration)@." k)
    [ 1; 2; 3; 4; 6; 8 ];
  Fmt.pr "@.shape check: token-limited regime at low occupancy, hole-limited@.";
  Fmt.pr "regime at high occupancy, optimum in between.@."

(* E12: the extraction flow                                            *)

let table_e12 () =
  section "E12" "Net-list to Signal Graph extraction (Section VIII.B flow)";
  let flow name netlist reference =
    let e = Tsg_extract.Traspec.extract netlist in
    let g = e.Tsg_extract.Traspec.graph in
    let lambda = Cycle_time.cycle_time g in
    let lambda_ref = Cycle_time.cycle_time reference in
    Fmt.pr "%-14s: distributive=%b, %d events, %d arcs, lambda=%a (hand-built: %a) %s@."
      name
      (match e.Tsg_extract.Traspec.verdict with
      | Some v -> v.Tsg_extract.Distributive.distributive
      | None -> false)
      (Signal_graph.event_count g) (Signal_graph.arc_count g) Tsg_io.Report.pp_rational
      lambda Tsg_io.Report.pp_rational lambda_ref
      (if abs_float (lambda -. lambda_ref) < 1e-9 then "MATCH" else "MISMATCH")
  in
  flow "fig1" (Tsg_circuit.Circuit_library.fig1_netlist ()) fig1;
  flow "muller-ring-5" (Tsg_circuit.Circuit_library.muller_ring_netlist ()) ring5;
  flow "muller-ring-7" (Tsg_circuit.Circuit_library.muller_ring_netlist ~stages:7 ())
    (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:7 ())

(* E13: the content-addressed analysis cache behind `tsa serve`.  The
   cached loop pays what a daemon cache hit pays — canonicalise +
   digest the graph, then one table lookup — so the speedup column is
   the honest serve-side amortisation, not just hashtable lookup
   time. *)

let table_e13 () =
  section "E13" "Content-addressed cache: repeated analyses vs cache hits";
  let repeats = 200 in
  Fmt.pr "%-12s %8s %14s %14s %12s %9s@." "model" "repeats" "uncached ms"
    "cached ms" "digest us" "speedup";
  List.iter
    (fun (name, g) ->
      let cache = Tsg_engine.Cache.create ~metrics_prefix:"bench-cache" ~capacity:8 () in
      let analyze () = Cycle_time.analyze g in
      let (), t_uncached =
        wall_ms (fun () -> for _ = 1 to repeats do ignore (analyze ()) done)
      in
      let (), t_cached =
        wall_ms (fun () ->
            for _ = 1 to repeats do
              let key = Signal_graph.digest g in
              ignore (Tsg_engine.Cache.find_or_add cache key analyze)
            done)
      in
      let (), t_digest =
        wall_ms (fun () -> for _ = 1 to repeats do ignore (Signal_graph.digest g) done)
      in
      let s = Tsg_engine.Cache.stats cache in
      assert (s.Tsg_engine.Cache.misses = 1 && s.Tsg_engine.Cache.hits = repeats - 1);
      Fmt.pr "%-12s %8d %14.3f %14.3f %12.3f %8.0fx@." name repeats t_uncached
        t_cached
        (t_digest /. float_of_int repeats *. 1000.)
        (t_uncached /. t_cached))
    [ ("fig1", fig1); ("ring5", ring5); ("stack66", stack66) ];
  Fmt.pr
    "@.shape check: a hit costs one digest plus one lookup, so the speedup@.\
     grows with model size — digesting is linear in the graph while the@.\
     analysis simulates b+1 periods of it.@."

(* A1: ablation — simulation length: the border bound b (what the
   algorithm can know for free) vs the exact maximum occurrence period
   eps_max (which requires enumerating cycles to discover) *)

let table_a1 () =
  section "A1" "Ablation: periods simulated (border bound b vs exact eps_max)";
  Fmt.pr "%-12s %4s %8s %14s %16s %9s@." "model" "b" "eps_max" "b-periods ms"
    "eps-periods ms" "lambda";
  List.iter
    (fun (name, g) ->
      let b = List.length (Cut_set.border g) in
      let eps_max = Cycles.max_occurrence_period g in
      let l1, t_b = wall_ms (fun () -> Cycle_time.cycle_time g) in
      let l2, t_eps = wall_ms (fun () -> Cycle_time.cycle_time ~periods:eps_max g) in
      assert (abs_float (l1 -. l2) < 1e-9);
      Fmt.pr "%-12s %4d %8d %14.3f %16.3f %9g@." name b eps_max t_b t_eps l1)
    [
      ("fig1", fig1);
      ("ring5", ring5);
      ("ring16", Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:16 ());
      ("stack66", stack66);
      ("handshake32", Tsg_circuit.Circuit_library.handshake_ring_tsg ~cells:32 ());
    ];
  Fmt.pr
    "@.the b bound is free (Proposition 7 via the border set) but simulates@.\
     more periods than necessary when eps_max << b; knowing eps_max would@.\
     require cycle enumeration, which is what the algorithm avoids.@."

(* A2: ablation — per-arc slack: one reweighted longest-walk sweep per
   arc target (Slack.analyze) vs the naive binary search that re-runs
   the cycle-time algorithm per probe *)

let naive_slack g lambda arc =
  let lambda_with extra =
    Cycle_time.cycle_time (Transform.add_delay g ~arc extra)
  in
  let hi0 = 1. +. (2. *. lambda *. float_of_int (Signal_graph.event_count g)) in
  if abs_float (lambda_with hi0 -. lambda) < 1e-9 then infinity
  else begin
    let rec bisect lo hi k =
      if k = 0 then lo
      else
        let mid = (lo +. hi) /. 2. in
        if abs_float (lambda_with mid -. lambda) < 1e-9 then bisect mid hi (k - 1)
        else bisect lo mid (k - 1)
    in
    bisect 0. hi0 40
  end

let table_a2 () =
  section "A2" "Ablation: slack computation (walk sweep vs naive binary search)";
  Fmt.pr "%-12s %6s %14s %16s %10s@." "model" "arcs" "sweep ms" "naive ms" "agree";
  List.iter
    (fun (name, g) ->
      let report, t_sweep = wall_ms (fun () -> Slack.analyze g) in
      let naive, t_naive =
        wall_ms (fun () ->
            Array.map
              (fun (s : Slack.arc_slack) -> naive_slack g report.Slack.lambda s.Slack.arc_id)
              report.Slack.arc_slacks)
      in
      let agree =
        Array.for_all2
          (fun (s : Slack.arc_slack) n ->
            (s.Slack.slack = infinity && n = infinity)
            || abs_float (s.Slack.slack -. n) < 1e-4 *. (1. +. abs_float n))
          report.Slack.arc_slacks naive
      in
      Fmt.pr "%-12s %6d %14.3f %16.3f %10b@." name (Signal_graph.arc_count g) t_sweep
        t_naive agree)
    [
      ("fig1", fig1);
      ("ring5", ring5);
      ("ring12", Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:12 ());
    ];
  Fmt.pr "@.the reweighted-graph sweep returns every slack exactly with O(n)@.\
          longest-walk computations; the naive search needs ~40 full analyses@.\
          per arc and only converges to tolerance.@."

(* A3: extension — delay uncertainty: interval corners vs Monte-Carlo
   jitter around the nominal cycle time *)

let table_a3 () =
  section "A3" "Extension: cycle time under delay uncertainty";
  List.iter
    (fun (name, g) ->
      let nominal = Cycle_time.cycle_time g in
      Fmt.pr "%s (nominal %g):@." name nominal;
      Fmt.pr "%8s %10s %10s %12s@." "jitter" "lower" "upper" "MC mean";
      List.iter
        (fun percent ->
          let bracket = Interval.of_relative_tolerance g ~percent in
          let s =
            Monte_carlo.estimate ~runs:10 ~periods:60 g
              ~sampler:(Monte_carlo.uniform_jitter g ~percent)
          in
          Fmt.pr "%7g%% %10.4f %10.4f %12.4f@." percent bracket.Interval.lower
            bracket.Interval.upper s.Monte_carlo.mean)
        [ 0.; 10.; 20. ];
      Fmt.pr "@.")
    [ ("fig1", fig1); ("ring5", ring5) ];
  Fmt.pr "shape check: the Monte-Carlo mean stays inside the corner bracket@.";
  Fmt.pr "and at or above the nominal value (jitter only slows MAX systems).@."

(* A4: ablation — the parametric function vs pointwise re-analysis *)

let table_a4 () =
  section "A4" "Ablation: parametric delay sweep (envelope vs pointwise)";
  let samples = List.init 21 (fun i -> float_of_int i /. 2.) in
  Fmt.pr "%-12s %6s %16s %16s@." "model" "arc" "envelope ms" "pointwise ms";
  List.iter
    (fun (name, g, arc) ->
      let p, t_env = wall_ms (fun () -> Parametric.analyze g ~arc) in
      let direct, t_pw =
        wall_ms (fun () ->
            List.map (fun x -> Cycle_time.cycle_time (Transform.set_delay g ~arc ~delay:x)) samples)
      in
      List.iter2
        (fun x expected -> assert (abs_float (Parametric.eval p x -. expected) < 1e-6))
        samples direct;
      Fmt.pr "%-12s %6d %16.3f %16.3f@." name arc t_env t_pw)
    [
      ("fig1", fig1, 3);
      ("ring5", ring5, 0);
      ("stack66", stack66, 10);
    ];
  Fmt.pr
    "@.the envelope is computed once and answers every 'what if this delay@.\
     were x' query exactly; pointwise re-analysis pays a full run per sample.@."

let () =
  table_e1 (); table_e2 (); table_e3 (); table_e4 (); table_e5 (); table_e6 ();
  table_e7 (); table_e8 (); table_e9 (); table_e10 (); table_e11 (); table_e12 ();
  table_e13 ();
  table_a1 (); table_a2 (); table_a3 (); table_a4 ()
