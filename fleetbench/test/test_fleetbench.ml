(* Unit tests for the benchmark's own measurement code: percentiles,
   failure accounting, /proc parsing, oracle comparison and span self
   times.  None of them starts a fleet. *)

open Fleetbench

let feq = Alcotest.float 1e-12

(* percentiles *)

let test_percentile_interpolates () =
  let xs = [ 4.; 1.; 3.; 2.; 5. ] in
  Alcotest.check feq "median of odd count" 3. (Stats.median xs);
  Alcotest.check feq "p0 is the minimum" 1. (Stats.percentile xs 0.);
  Alcotest.check feq "p100 is the maximum" 5. (Stats.percentile xs 1.);
  Alcotest.check feq "p90 interpolates" 4.6 (Stats.percentile xs 0.9);
  Alcotest.check feq "median of even count" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.check feq "single sample" 7. (Stats.percentile [ 7. ] 0.9)

let test_percentile_matches_python_inclusive () =
  (* statistics.quantiles(range(1, 11), n=10, method="inclusive")[8] *)
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p90 of 1..10" 9.1 (Stats.percentile xs 0.9);
  Alcotest.check feq "p25 of 1..10" 3.25 (Stats.percentile xs 0.25)

let test_percentile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile [] 0.5));
  Alcotest.check_raises "p > 1" (Invalid_argument "Stats.percentile: p outside [0, 1]")
    (fun () -> ignore (Stats.percentile [ 1. ] 1.5))

let test_tail_support () =
  Alcotest.(check int) "100 samples leave 10 beyond p90" 10 (Stats.beyond ~n:100 0.9);
  Alcotest.(check bool) "100 samples support p90" true (Stats.tail_supported ~n:100 0.9);
  Alcotest.(check bool) "99 samples do not" false (Stats.tail_supported ~n:99 0.9);
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.check feq "ratio guards zero" 0. (Stats.ratio 3 0);
  Alcotest.check feq "mean of nothing" 0. (Stats.mean [])

(* failure accounting *)

let test_accounting () =
  let a = Accounting.create () in
  Accounting.answered a 2.;
  Accounting.answered a 4.;
  Accounting.failed a "overloaded";
  Alcotest.(check int) "attempted" 3 (Accounting.attempted a);
  Alcotest.(check int) "failed" 1 (Accounting.failures a);
  Alcotest.(check int) "completed" 2 (Accounting.completed a);
  Alcotest.(check (list (float 0.))) "latencies in order" [ 2.; 4. ] (Accounting.latencies_ms a);
  Alcotest.check feq "error rate" (1. /. 3.) (Accounting.error_rate a);
  Alcotest.(check (list string)) "reasons" [ "overloaded" ] (Accounting.failure_reasons a);
  Alcotest.check feq "no requests, no errors" 0. (Accounting.error_rate (Accounting.create ()))

let test_accounting_threads () =
  let a = Accounting.create () in
  let worker () =
    for i = 1 to 1000 do
      if i mod 10 = 0 then Accounting.failed a "x" else Accounting.answered a 1.
    done
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create worker ()));
  Alcotest.(check int) "attempted" 2000 (Accounting.attempted a);
  Alcotest.(check int) "failed" 200 (Accounting.failures a);
  Alcotest.(check int) "samples" 1800 (List.length (Accounting.latencies_ms a));
  Alcotest.(check int) "reasons are capped" 5 (List.length (Accounting.failure_reasons a))

let test_classify () =
  let ok = {|{"status":"ok","model":"m","report":{"cycle_time":3}}|} in
  Alcotest.(check (result string string)) "ok" (Ok ok) (Accounting.classify ok);
  let degraded = Tsg_engine.Proxy.mark_degraded ok in
  Alcotest.(check (result string string)) "degraded reads as its payload" (Ok ok)
    (Accounting.classify degraded);
  let err = {|{"status":"error","code":"overloaded","error":"queue full"}|} in
  Alcotest.(check (result string string)) "error reply is a failure" (Error err)
    (Accounting.classify err);
  Alcotest.(check bool) "garbage is a failure" true
    (Result.is_error (Accounting.classify "not json"))

(* /proc *)

let test_stat_parsing () =
  let line =
    "4242 (tsa (serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 3 0 \
     123456 1000000 2000 18446744073709551615"
  in
  Alcotest.(check (option (float 1e-9))) "utime+stime at 100 ticks/s" (Some 3250.)
    (Procfs.cpu_ms_of_stat line);
  Alcotest.(check (option (float 0.))) "truncated" None (Procfs.cpu_ms_of_stat "1 (x) S 1 2");
  Alcotest.(check (option (float 0.))) "no command" None (Procfs.cpu_ms_of_stat "garbage")

let test_status_parsing () =
  let text = "Name:\ttsa\nVmPeak:\t  50000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 12345) (Procfs.status_kb text "VmHWM");
  Alcotest.(check (option int)) "prefix is not a match" None (Procfs.status_kb text "VmH");
  Alcotest.(check (option int)) "absent" None (Procfs.status_kb text "VmSwap")

let test_proc_self () =
  let pid = Unix.getpid () in
  let busy = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.05 do
    incr busy
  done;
  (match Procfs.cpu_ms pid with
  | Some ms -> Alcotest.(check bool) "own CPU time is positive" true (ms > 0.)
  | None -> Alcotest.fail "no /proc/self/stat");
  (match Procfs.peak_rss_kb pid with
  | Some kb -> Alcotest.(check bool) "own peak RSS is positive" true (kb > 0)
  | None -> Alcotest.fail "no VmHWM");
  Alcotest.(check (option (float 0.))) "a dead pid reads as gone" None (Procfs.cpu_ms (-1))

(* oracle comparison *)

let analyze_reply ct =
  Printf.sprintf
    {|{"status":"ok","model":"m","events":3,"arcs":3,"report":{"cycle_time":%s,"border":["a+"]}}|}
    ct

let test_close () =
  Alcotest.(check bool) "equal" true (Oracle.close 10. 10.);
  Alcotest.(check bool) "within 1e-9" true (Oracle.close 1e6 (1e6 +. 1e-4));
  Alcotest.(check bool) "beyond 1e-9" false (Oracle.close 1e6 (1e6 +. 1e-2));
  Alcotest.(check bool) "zero" true (Oracle.close 0. 0.);
  Alcotest.(check bool) "nan matches nothing" false (Oracle.close Float.nan Float.nan)

let test_report_cycle_times () =
  Alcotest.(check (list (float 0.))) "integral" [ 33. ]
    (Oracle.report_cycle_times (analyze_reply "33"));
  Alcotest.(check (list (float 0.))) "full precision" [ 20. /. 3. ]
    (Oracle.report_cycle_times (analyze_reply (Printf.sprintf "%.17g" (20. /. 3.))));
  let sweep =
    {|{"status":"ok","model":"m","items":[|}
    ^ {|{"status":"ok","cycle_time":5,"report":{"cycle_time":5,"border":[]}},|}
    ^ {|{"status":"ok","cycle_time":6.5,"report":{"cycle_time":6.5}}],"summary":{}}|}
  in
  Alcotest.(check (list (float 0.))) "one per sweep item" [ 5.; 6.5 ]
    (Oracle.report_cycle_times sweep);
  Alcotest.(check (list (float 0.))) "error reply holds none" []
    (Oracle.report_cycle_times {|{"status":"error","error":"x"}|})

let test_check_cycle_times () =
  Alcotest.(check (result unit string)) "match" (Ok ())
    (Oracle.check_cycle_times ~expected:[| 33. |] (analyze_reply "33"));
  Alcotest.(check bool) "wrong value" true
    (Result.is_error (Oracle.check_cycle_times ~expected:[| 34. |] (analyze_reply "33")));
  Alcotest.(check bool) "missing report" true
    (Result.is_error (Oracle.check_cycle_times ~expected:[| 33.; 33. |] (analyze_reply "33")));
  Alcotest.(check bool) "unparsable figure" true
    (Result.is_error (Oracle.check_cycle_times ~expected:[| 33. |] (analyze_reply "\"x\"")))

let test_same_bytes () =
  let r = analyze_reply "10" in
  Alcotest.(check bool) "identical" true (Oracle.same_bytes ~first:r r);
  Alcotest.(check bool) "degraded copy" true
    (Oracle.same_bytes ~first:r (Tsg_engine.Proxy.mark_degraded r));
  Alcotest.(check bool) "one byte off" false (Oracle.same_bytes ~first:r (analyze_reply "11"))

(* spans *)

let test_covered () =
  Alcotest.check feq "disjoint" 3. (Spans.covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ]);
  Alcotest.check feq "overlapping" 4. (Spans.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 5.) ]);
  Alcotest.check feq "clipped" 1.5 (Spans.covered ~lo:0. ~hi:2. [ (-1., 1.); (1.5, 9.) ]);
  Alcotest.check feq "none" 0. (Spans.covered ~lo:0. ~hi:1. [])

let test_self_times () =
  let s = Spans.create () in
  Spans.with_span s "request" (fun root ->
      Unix.sleepf 0.01;
      Spans.with_span s ~parent:root "layer" (fun _ -> Unix.sleepf 0.02));
  let self name =
    match List.find_opt (fun (n, _, _) -> n = name) (Spans.self_times s) with
    | Some (_, count, ms) -> (count, ms)
    | None -> Alcotest.fail ("no span " ^ name)
  in
  let n_req, req = self "request" and n_layer, layer = self "layer" in
  Alcotest.(check int) "one request" 1 n_req;
  Alcotest.(check int) "one layer" 1 n_layer;
  Alcotest.(check bool) "layer self time is its duration" true (layer >= 19.);
  Alcotest.(check bool) "request self time excludes the layer" true (req >= 9. && req < 19.);
  let spans = Spans.spans s in
  Alcotest.(check bool) "one trace id" true
    (match spans with [ a; b ] -> a.Spans.trace = b.Spans.trace | _ -> false);
  let json = Spans.to_chrome_json s in
  Alcotest.(check bool) "chrome json" true
    (Result.is_ok (Tsg_engine.Protocol.json_of_string json))

let test_span_on_exception () =
  let s = Spans.create () in
  (try Spans.with_span s "boom" (fun _ -> failwith "x") with Failure _ -> ());
  Alcotest.(check (list string)) "span kept" [ "boom" ]
    (List.map (fun sp -> sp.Spans.name) (Spans.spans s))

let () =
  Alcotest.run "fleetbench"
    [
      ( "stats",
        [
          Alcotest.test_case "interpolation" `Quick test_percentile_interpolates;
          Alcotest.test_case "python inclusive" `Quick test_percentile_matches_python_inclusive;
          Alcotest.test_case "rejects" `Quick test_percentile_rejects;
          Alcotest.test_case "tail support" `Quick test_tail_support;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "counts" `Quick test_accounting;
          Alcotest.test_case "two threads" `Quick test_accounting_threads;
          Alcotest.test_case "classify" `Quick test_classify;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "stat" `Quick test_stat_parsing;
          Alcotest.test_case "status" `Quick test_status_parsing;
          Alcotest.test_case "self" `Quick test_proc_self;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "close" `Quick test_close;
          Alcotest.test_case "report cycle times" `Quick test_report_cycle_times;
          Alcotest.test_case "check" `Quick test_check_cycle_times;
          Alcotest.test_case "same bytes" `Quick test_same_bytes;
        ] );
      ( "spans",
        [
          Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "exception" `Quick test_span_on_exception;
        ] );
    ]
