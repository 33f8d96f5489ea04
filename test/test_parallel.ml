open Tsg

(* the parallel path must be an exact drop-in for the sequential one *)

let same_report msg g jobs =
  let seq = Cycle_time.analyze g in
  let par = Cycle_time.analyze ~jobs g in
  Helpers.check_float (msg ^ ": lambda") seq.Cycle_time.cycle_time par.Cycle_time.cycle_time;
  Alcotest.(check int) (msg ^ ": critical event") seq.Cycle_time.critical_event
    par.Cycle_time.critical_event;
  Alcotest.(check int) (msg ^ ": critical period") seq.Cycle_time.critical_period
    par.Cycle_time.critical_period;
  Alcotest.(check (list int)) (msg ^ ": critical walk") seq.Cycle_time.critical_walk
    par.Cycle_time.critical_walk;
  Alcotest.(check int) (msg ^ ": trace count")
    (List.length seq.Cycle_time.traces)
    (List.length par.Cycle_time.traces);
  List.iter2
    (fun (t1 : Cycle_time.border_trace) t2 ->
      Alcotest.(check int) (msg ^ ": trace event") t1.Cycle_time.border_event
        t2.Cycle_time.border_event;
      List.iter2
        (fun (s1 : Cycle_time.sample) s2 ->
          Helpers.check_float (msg ^ ": sample time") s1.Cycle_time.time s2.Cycle_time.time)
        t1.Cycle_time.samples t2.Cycle_time.samples)
    seq.Cycle_time.traces par.Cycle_time.traces

let test_fig1_parallel () = same_report "fig1" (Tsg_circuit.Circuit_library.fig1_tsg ()) 4

let test_ring_parallel () =
  same_report "ring5" (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ()) 3

let test_stack_parallel () =
  same_report "stack66" (Tsg_circuit.Circuit_library.async_stack_tsg ()) 8

let test_more_jobs_than_border_events () =
  (* jobs is clamped to the work available *)
  same_report "tiny" (Tsg_circuit.Generators.ring_tsg ~events:4 ~tokens:1 ()) 16

let test_speedup_smoke () =
  (* not a performance assertion (CI machines vary), just that the
     parallel path completes on a graph big enough to exercise it *)
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:48 () in
  let l1 = Cycle_time.cycle_time g in
  let l4 = Cycle_time.cycle_time ~jobs:4 g in
  Helpers.check_float "same lambda on 48-stage ring" l1 l4

let test_parallel_map_basic () =
  let xs = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "order preserved"
    (Array.map (fun x -> x * x) xs)
    (Tsg_engine.Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (array int)) "jobs=1 inline" (Array.map succ xs)
    (Tsg_engine.Pool.map ~jobs:1 succ xs);
  Alcotest.(check (array int)) "empty input" [||] (Tsg_engine.Pool.map ~jobs:4 succ [||])

let test_parallel_map_exceptions () =
  let raised =
    try
      ignore
        (Tsg_engine.Pool.map ~jobs:4
           (fun x -> if x = 17 then invalid_arg "boom" else x)
           (Array.init 64 Fun.id));
      false
    with Invalid_argument msg -> msg = "boom"
  in
  Alcotest.(check bool) "worker exception reraised" true raised

let test_monte_carlo_parallel_deterministic () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let sampler = Monte_carlo.uniform_jitter g ~percent:15. in
  let s1 = Monte_carlo.estimate ~seed:3 ~runs:12 ~periods:30 ~jobs:1 g ~sampler in
  let s4 = Monte_carlo.estimate ~seed:3 ~runs:12 ~periods:30 ~jobs:4 g ~sampler in
  Helpers.check_float "same mean across job counts" s1.Monte_carlo.mean s4.Monte_carlo.mean;
  Helpers.check_float "same std across job counts" s1.Monte_carlo.std s4.Monte_carlo.std

let prop_parallel_equals_sequential =
  Helpers.qcheck_case ~count:40 ~name:"parallel analysis equals sequential" (fun g ->
      let seq = Cycle_time.analyze g in
      let par = Cycle_time.analyze ~jobs:4 g in
      Helpers.float_close seq.Cycle_time.cycle_time par.Cycle_time.cycle_time
      && seq.Cycle_time.critical_walk = par.Cycle_time.critical_walk)

let prop_reports_byte_identical =
  (* stronger than value equality: the full serialised report — every
     trace sample, every float digit — must not depend on [jobs], no
     matter how the claims were scheduled *)
  Helpers.qcheck_case ~count:30 ~name:"serialised reports byte-identical across jobs"
    (fun g ->
      let render jobs =
        (* analysis_obj, not analysis: the latter appends live
           wall-clock metrics, which are never byte-stable *)
        Tsg_obs.Json.to_string (Tsg_io.Json_report.analysis_obj g (Cycle_time.analyze ~jobs g))
      in
      let reference = render 1 in
      List.for_all
        (fun jobs -> String.equal reference (render jobs))
        (List.sort_uniq compare [ 2; Tsg_engine.Pool.recommended () ]))

let test_deadline_cancel_mid_batch () =
  let g = Tsg_circuit.Circuit_library.async_stack_tsg () in
  let border = Cut_set.border g in
  let u = Unfolding.make g ~periods:(List.length border + 1) in
  let roots =
    Array.of_list (List.map (fun e -> Unfolding.instance u ~event:e ~period:0) border)
  in
  let deadline = Tsg_engine.Deadline.make () in
  let seen = Atomic.make 0 in
  let cancelled =
    match
      Tsg_engine.Deadline.with_deadline deadline (fun () ->
          Timing_sim.simulate_many ~jobs:4 u ~roots ~f:(fun _ _ ->
              (* cancel from inside the batch after a few claims: the
                 remaining claims must observe the shared deadline at
                 the top of their kernel window and give up *)
              if Atomic.fetch_and_add seen 1 = 2 then Tsg_engine.Deadline.cancel deadline))
    with
    | _ -> false
    | exception Tsg_engine.Deadline.Deadline_exceeded -> true
  in
  Alcotest.(check bool) "batch cancelled mid-flight" true cancelled;
  (* a cancelled batch must not poison the shared pool: the very next
     parallel analysis reuses it and must succeed *)
  same_report "analysis after cancelled batch" g 4

let test_map_claims_order () =
  let xs = Array.init 10 Fun.id in
  (* a reversed claim schedule must not change where results land *)
  let order = Array.init 10 (fun k -> 9 - k) in
  Alcotest.(check (array int)) "results land at input index"
    (Array.map (fun x -> x * 10) xs)
    (Tsg_engine.Pool.map_claims ~jobs:4 ~order
       ~with_ctx:(fun k -> k 10)
       ~f:(fun c x -> c * x)
       xs);
  match
    Tsg_engine.Pool.map_claims ~jobs:4 ~order:[| 0; 1 |]
      ~with_ctx:(fun k -> k ())
      ~f:(fun () x -> x)
      xs
  with
  | _ -> Alcotest.fail "short order accepted"
  | exception Invalid_argument _ -> ()

let test_map_claims_metrics () =
  let claims = Tsg_engine.Metrics.count "pool/claims" in
  let xs = Array.init 50 Fun.id in
  ignore (Tsg_engine.Pool.map ~jobs:4 (fun x -> x + 1) xs);
  Alcotest.(check int) "every item claimed exactly once" (claims + 50)
    (Tsg_engine.Metrics.count "pool/claims")

(* one participant runs inline on the caller: an analysis, a batch
   and a sweep at jobs 1 claim nothing from the pool *)
let test_jobs1_never_touches_the_pool () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let base = Whatif.prepare g in
  let claims = Tsg_engine.Metrics.count "pool/claims" in
  ignore (Cycle_time.analyze ~jobs:1 g);
  let entries =
    Tsg_engine.Batch.run ~jobs:1 ~label:Fun.id
      ~f:(fun _ _ -> Ok (Cycle_time.cycle_time g))
      [ "a"; "b" ]
  in
  let sweep =
    Whatif.sweep_changes ~jobs:1 base
      [| [ Whatif.Delay { arc = 0; delta = 1.5 } ]; [ Whatif.Delay { arc = 1; delta = 0.5 } ] |]
  in
  Alcotest.(check bool) "batch answered" true
    (List.for_all (fun (e : _ Tsg_engine.Batch.entry) -> Result.is_ok e.outcome) entries);
  Alcotest.(check bool) "sweep answered" true
    (Array.for_all (fun (outcome, _) -> Result.is_ok outcome) sweep);
  Alcotest.(check int) "pool/claims unchanged" claims (Tsg_engine.Metrics.count "pool/claims")

let suite =
  [
    Alcotest.test_case "fig1" `Quick test_fig1_parallel;
    Alcotest.test_case "Muller ring" `Quick test_ring_parallel;
    Alcotest.test_case "stack66" `Quick test_stack_parallel;
    Alcotest.test_case "more jobs than border events" `Quick
      test_more_jobs_than_border_events;
    Alcotest.test_case "48-stage ring smoke" `Quick test_speedup_smoke;
    Alcotest.test_case "Parallel.map basics" `Quick test_parallel_map_basic;
    Alcotest.test_case "Parallel.map exceptions" `Quick test_parallel_map_exceptions;
    Alcotest.test_case "parallel Monte Carlo is deterministic" `Quick
      test_monte_carlo_parallel_deterministic;
    Alcotest.test_case "deadline cancel mid-batch leaves the pool reusable" `Quick
      test_deadline_cancel_mid_batch;
    Alcotest.test_case "Pool.map_claims order schedule" `Quick test_map_claims_order;
    Alcotest.test_case "Pool.map_claims claim accounting" `Quick test_map_claims_metrics;
    prop_parallel_equals_sequential;
    prop_reports_byte_identical;
    Alcotest.test_case "jobs 1 never touches the pool" `Quick test_jobs1_never_touches_the_pool;
  ]
