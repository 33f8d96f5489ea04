(* The bench harness's typed snapshot (Tsg_bench.Bench) and the fleet
   supervisor's restart policy (Tsg_io.Fleet): the tsa-bench/9 bytes
   for hand-built snapshots covering every status, the check that
   rejects --only names matching nothing, and the pure restart
   backoff. *)

module Bench = Tsg_bench.Bench

let model =
  {
    Bench.name = "a"; events = 4; arcs = 5; border = 2; cycle_time = 10.;
    total_mean_ms = 1.5; total_min_ms = 1.25;
    phases = { load = 0.5; unfold = 0.25; simulate = 0.75; backtrack = 0.125; render = 0.0625 };
    scaling = [ { jobs = 1; simulate_ms = 0.75; total_ms = 1.5 }; { jobs = 2; simulate_ms = 0.5; total_ms = 1. } ];
  }

let whatif ~scenarios ~prepare_ms ~cold_ms ~warm_ms =
  { Bench.scenarios; prepare_ms; cold_ms; warm_ms; reused = 1; resimulated = 7;
    warm_paths = scenarios; spliced = 12; dropped = 10 }

(* one core: ok, not_applicable and error models, both what-if shapes
   (the structural one single_core) *)
let test_to_json_single_core () =
  let s =
    {
      Bench.date = "2026-01-02"; iterations = 2; cores = 1; jobs_levels = [ 1; 2 ];
      benchmarks =
        [
          { file = "a.g"; outcome = Ok model };
          { file = "p.g"; outcome = Error (`Not_applicable "acyclic") };
          { file = "bad.g"; outcome = Error (`Error "parse error") };
        ];
      whatif_sweep = Some (whatif ~scenarios:4 ~prepare_ms:1. ~cold_ms:8. ~warm_ms:3.);
      whatif_structural = Some (whatif ~scenarios:3 ~prepare_ms:0.5 ~cold_ms:6. ~warm_ms:2.5);
    }
  in
  Alcotest.(check string)
    "tsa-bench/9 bytes"
    ({|{"schema":"tsa-bench/9","date":"2026-01-02","iterations":2,"cores":1,"jobs_levels":[1,2],|}
    ^ {|"benchmarks":[{"file":"a.g","status":"ok","model":"a","events":4,"arcs":5,"border":2,|}
    ^ {|"cycle_time":10,"total_ms":{"mean":1.5,"min":1.25},|}
    ^ {|"phases_ms":{"load":0.5,"unfold":0.25,"simulate":0.75,"backtrack":0.125,"render":0.0625},|}
    ^ {|"jobs_scaling":[{"jobs":1,"simulate_ms":0.75,"total_ms":1.5},{"jobs":2,"simulate_ms":0.5,"total_ms":1}]},|}
    ^ {|{"file":"p.g","status":"not_applicable","reason":"acyclic"},|}
    ^ {|{"file":"bad.g","status":"error","error":"parse error"}],|}
    ^ {|"whatif_sweep":{"status":"ok","model":"gen-dense","scenarios":4,"jobs":1,"prepare_ms":1,|}
    ^ {|"cold_total_ms":8,"warm_reanalyze_ms":3,"warm_total_ms":4,"speedup":2,"reused":1,|}
    ^ {|"resimulated":7,"byte_identical":true},|}
    ^ {|"whatif_structural":{"status":"single_core","model":"gen-dense","scenarios":3,"jobs":1,|}
    ^ {|"prepare_ms":0.5,"cold_total_ms":6,"warm_reanalyze_ms":2.5,"warm_total_ms":3,"speedup":2,|}
    ^ {|"warm_paths":3,"instances_spliced":12,"instances_dropped":10,"byte_identical":true}}|})
    (Bench.to_json s)

(* several cores: the structural what-if reads ok; a skipped what-if *)
let test_to_json_multi_core () =
  let s =
    {
      Bench.date = "2026-01-02"; iterations = 1; cores = 2; jobs_levels = [ 1; 2; 4 ];
      benchmarks = []; whatif_sweep = None;
      whatif_structural = Some (whatif ~scenarios:2 ~prepare_ms:1. ~cold_ms:9. ~warm_ms:2.);
    }
  in
  Alcotest.(check string)
    "tsa-bench/9 bytes"
    ({|{"schema":"tsa-bench/9","date":"2026-01-02","iterations":1,"cores":2,"jobs_levels":[1,2,4],|}
    ^ {|"benchmarks":[],"whatif_sweep":{"status":"skipped"},|}
    ^ {|"whatif_structural":{"status":"ok","model":"gen-dense","scenarios":2,"jobs":1,|}
    ^ {|"prepare_ms":1,"cold_total_ms":9,"warm_reanalyze_ms":2,"warm_total_ms":3,"speedup":3,|}
    ^ {|"warm_paths":2,"instances_spliced":12,"instances_dropped":10,"byte_identical":true}}|})
    (Bench.to_json s)

(* an --only name must select a model by path, basename or basename
   without extension, or name a composite workload; the rest are
   reported in order, removed workloads included *)
let test_unknown_names () =
  let files = [ "benchmarks/fig1.g"; "gen-dense" ] in
  Alcotest.(check (list string))
    "unmatched names"
    [ "fig"; "proxy_load"; "ring5"; "fleet_load"; "benchmarks/fig1" ]
    (Bench.unknown
       ~only:
         [ "fig1"; "fig"; "fig1.g"; "proxy_load"; "benchmarks/fig1.g"; "ring5"; "gen-dense";
           "whatif_sweep"; "fleet_load"; "whatif_structural"; "benchmarks/fig1" ]
       files);
  Alcotest.(check (list string)) "no filter" [] (Bench.unknown ~only:[] files);
  Alcotest.(check (list string)) "workloads without models" [] (Bench.unknown ~only:[ "whatif_sweep" ] [])

(* an --only value that names nothing is refused like an unknown name,
   before anything is timed; blanks around and between names are
   dropped *)
let test_parse_only () =
  let files = [ "benchmarks/fig1.g" ] in
  let parse = Alcotest.(result (list string) string) in
  List.iter
    (fun value ->
      Alcotest.check parse (Printf.sprintf "%S names nothing" value)
        (Error (Printf.sprintf "--only %S names nothing" value))
        (Bench.parse_only value files))
    [ ","; ""; " , ,"; " " ];
  Alcotest.check parse "names, blanks dropped" (Ok [ "fig1"; "whatif_sweep" ])
    (Bench.parse_only " fig1,, whatif_sweep ," files);
  Alcotest.check parse "unknown names"
    (Error "--only names no model or workload: ring5, proxy_load")
    (Bench.parse_only "fig1,ring5,proxy_load" files)

(* 0.5 s doubling per consecutive crash, capped at 10 s; a replica that
   stayed up more than 30 s starts the count over *)
let test_restart_backoff () =
  let rec delays crashes n =
    if n = 0 then []
    else
      let crashes, delay = Tsg_io.Fleet.restart_backoff ~crashes ~uptime_s:1. in
      delay :: delays crashes (n - 1)
  in
  Alcotest.(check (list (float 0.))) "capped doubling" [ 0.5; 1.; 2.; 4.; 8.; 10.; 10. ] (delays 0 7);
  Alcotest.(check (pair int (float 0.))) "reset after 30 s of uptime" (1, 0.5)
    (Tsg_io.Fleet.restart_backoff ~crashes:6 ~uptime_s:31.);
  Alcotest.(check (pair int (float 0.))) "no reset at 30 s" (7, 10.)
    (Tsg_io.Fleet.restart_backoff ~crashes:6 ~uptime_s:30.)

let suite =
  [
    Alcotest.test_case "to_json: one core, every status" `Quick test_to_json_single_core;
    Alcotest.test_case "to_json: several cores, structural ok" `Quick test_to_json_multi_core;
    Alcotest.test_case "only: names that match nothing" `Quick test_unknown_names;
    Alcotest.test_case "only: a value that names nothing" `Quick test_parse_only;
    Alcotest.test_case "fleet: restart backoff" `Quick test_restart_backoff;
  ]
