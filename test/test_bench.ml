(* The bench harness's typed snapshot (Tsg_bench.Bench) and the fleet
   supervisor's restart policy (Tsg_io.Fleet): the tsa-bench/7 bytes
   for hand-built snapshots covering every status, and the pure
   restart backoff. *)

module Bench = Tsg_bench.Bench

let model =
  {
    Bench.name = "a"; events = 4; arcs = 5; border = 2; cycle_time = 10.;
    total_mean_ms = 1.5; total_min_ms = 1.25;
    phases = { load = 0.5; unfold = 0.25; simulate = 0.75; backtrack = 0.125 };
    scaling = [ { jobs = 1; simulate_ms = 0.75; total_ms = 1.5 }; { jobs = 2; simulate_ms = 0.5; total_ms = 1. } ];
  }

let whatif ~scenarios ~prepare_ms ~cold_ms ~warm_ms =
  { Bench.scenarios; prepare_ms; cold_ms; warm_ms; reused = 1; resimulated = 7;
    warm_paths = scenarios; spliced = 12; dropped = 10 }

let drill ~base_ms ~test_ms ~failed =
  { Bench.requests = 8; client_threads = 2; replicas = 3; base_ms; test_ms; failed;
    identical = failed = 0 }

(* one core: ok, not_applicable and error models, both what-if shapes
   (the structural one single_core), a single_core drill and a skipped
   one *)
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
      fleet_load = Some (Ok (drill ~base_ms:500. ~test_ms:250. ~failed:0));
      proxy_load = None;
    }
  in
  Alcotest.(check string)
    "tsa-bench/7 bytes"
    ({|{"schema":"tsa-bench/7","date":"2026-01-02","iterations":2,"cores":1,"jobs_levels":[1,2],|}
    ^ {|"benchmarks":[{"file":"a.g","status":"ok","model":"a","events":4,"arcs":5,"border":2,|}
    ^ {|"cycle_time":10,"total_ms":{"mean":1.5,"min":1.25},|}
    ^ {|"phases_ms":{"load":0.5,"unfold":0.25,"simulate":0.75,"backtrack":0.125},|}
    ^ {|"jobs_scaling":[{"jobs":1,"simulate_ms":0.75,"total_ms":1.5},{"jobs":2,"simulate_ms":0.5,"total_ms":1}]},|}
    ^ {|{"file":"p.g","status":"not_applicable","reason":"acyclic"},|}
    ^ {|{"file":"bad.g","status":"error","error":"parse error"}],|}
    ^ {|"whatif_sweep":{"status":"ok","model":"gen-dense","scenarios":4,"jobs":1,"prepare_ms":1,|}
    ^ {|"cold_total_ms":8,"warm_reanalyze_ms":3,"warm_total_ms":4,"speedup":2,"reused":1,|}
    ^ {|"resimulated":7,"byte_identical":true},|}
    ^ {|"whatif_structural":{"status":"single_core","model":"gen-dense","scenarios":3,"jobs":1,|}
    ^ {|"prepare_ms":0.5,"cold_total_ms":6,"warm_reanalyze_ms":2.5,"warm_total_ms":3,"speedup":2,|}
    ^ {|"warm_paths":3,"instances_spliced":12,"instances_dropped":10,"byte_identical":true},|}
    ^ {|"fleet_load":{"status":"single_core","requests":8,"client_threads":2,"replicas":3,"cores":1,|}
    ^ {|"single_ms":500,"fleet_ms":250,"single_rps":16,"fleet_rps":32,"speedup":2,"failed":0,|}
    ^ {|"byte_identical":true},"proxy_load":{"status":"skipped"}}|})
    (Bench.to_json s)

(* several cores: an ok drill and an error drill; skipped what-ifs *)
let test_to_json_multi_core () =
  let s =
    {
      Bench.date = "2026-01-02"; iterations = 1; cores = 2; jobs_levels = [ 1; 2; 4 ];
      benchmarks = []; whatif_sweep = None; whatif_structural = None;
      fleet_load = Some (Error "fleet failed to come up");
      proxy_load = Some (Ok (drill ~base_ms:250. ~test_ms:500. ~failed:1));
    }
  in
  Alcotest.(check string)
    "tsa-bench/7 bytes"
    ({|{"schema":"tsa-bench/7","date":"2026-01-02","iterations":1,"cores":2,"jobs_levels":[1,2,4],|}
    ^ {|"benchmarks":[],"whatif_sweep":{"status":"skipped"},"whatif_structural":{"status":"skipped"},|}
    ^ {|"fleet_load":{"status":"error","error":"fleet failed to come up"},|}
    ^ {|"proxy_load":{"status":"ok","requests":8,"client_threads":2,"replicas":3,"cores":2,|}
    ^ {|"direct_ms":250,"proxy_ms":500,"direct_rps":32,"proxy_rps":16,"overhead":1,"failed":1,|}
    ^ {|"byte_identical":false}}|})
    (Bench.to_json s)

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
    Alcotest.test_case "to_json: several cores, drill error" `Quick test_to_json_multi_core;
    Alcotest.test_case "fleet: restart backoff" `Quick test_restart_backoff;
  ]
