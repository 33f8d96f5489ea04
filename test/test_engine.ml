open Tsg
open Tsg_engine

(* the benchmarks tree is materialised next to the test dir by dune *)
let benchmarks_dir = try Sys.getenv "BENCHMARKS" with Not_found -> "../benchmarks"

let benchmark_files () =
  Sys.readdir benchmarks_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare
  |> List.map (Filename.concat benchmarks_dir)

let analyze_file path =
  match Tsg_io.Loader.load_file path with
  | Error msg -> Error msg
  | Ok m -> (
    match Cycle_time.analyze m.Tsg_io.Loader.graph with
    | report -> Ok report.Cycle_time.cycle_time
    | exception Cycle_time.Not_analyzable msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_map_basic () =
  let pool = Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let xs = Array.init 100 Fun.id in
      Alcotest.(check (array int))
        "order preserved"
        (Array.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs);
      Alcotest.(check (array int)) "empty input" [||] (Pool.map pool succ [||]))

let test_pool_reuses_domains () =
  (* every participant (all workers + the caller) claims exactly one
     item and blocks until all have joined, so both calls observe the
     full set of pool domains; identical non-caller id sets across the
     two calls means the domains were reused, not respawned *)
  let pool = Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let participants = Pool.size pool + 1 in
      let ids_of_call () =
        let started = Atomic.make 0 in
        let ids =
          Pool.map pool
            (fun _ ->
              Atomic.incr started;
              while Atomic.get started < participants do
                Domain.cpu_relax ()
              done;
              (Domain.self () :> int))
            (Array.init participants Fun.id)
        in
        List.sort_uniq compare (Array.to_list ids)
      in
      let self = (Domain.self () :> int) in
      let ids1 = ids_of_call () in
      let ids2 = ids_of_call () in
      Alcotest.(check int) "all participants took part" participants (List.length ids1);
      Alcotest.(check (list int))
        "same worker domains on the second call"
        (List.filter (fun i -> i <> self) ids1)
        (List.filter (fun i -> i <> self) ids2))

let test_pool_map_after_shutdown () =
  let pool = Pool.create ~size:2 () in
  Pool.shutdown pool;
  (* degenerates to the calling domain, but still completes *)
  Alcotest.(check (array int))
    "inline after shutdown" [| 1; 2; 3 |]
    (Pool.map pool succ [| 0; 1; 2 |])

exception Boom of int

let test_pool_exception_deterministic () =
  let pool = Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 10 do
        let got =
          try
            ignore
              (Pool.map pool
                 (fun i -> if i = 3 || i = 7 || i = 11 then raise (Boom i) else i)
                 (Array.init 32 Fun.id));
            None
          with Boom i -> Some i
        in
        Alcotest.(check (option int)) "smallest failing index wins" (Some 3) got
      done)

let test_pool_size_is_capped () =
  let pool = Pool.create ~size:10_000 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool)
        "capped at recommended_domain_count" true
        (Pool.size pool <= Pool.recommended ()))

(* ------------------------------------------------------------------ *)
(* Batch                                                               *)

let test_batch_matches_sequential () =
  let files = benchmark_files () in
  Alcotest.(check bool) "found benchmark files" true (List.length files >= 5);
  let sequential = List.map (fun f -> (f, analyze_file f)) files in
  let entries = Batch.run ~jobs:4 ~label:Fun.id ~f:analyze_file files in
  Alcotest.(check int) "one entry per file" (List.length files) (List.length entries);
  List.iter2
    (fun (file, seq) (e : _ Batch.entry) ->
      Alcotest.(check string) "entry order follows input order" file e.Batch.label;
      match (seq, e.Batch.outcome) with
      | Ok l1, Ok l2 -> Helpers.check_float (file ^ ": same cycle time") l1 l2
      | Error _, Error _ -> ()
      | Ok _, Error msg -> Alcotest.failf "%s: batch failed but sequential ok: %s" file msg
      | Error msg, Ok _ -> Alcotest.failf "%s: batch ok but sequential failed: %s" file msg)
    sequential entries

let test_batch_isolates_faults () =
  let corrupt = Filename.temp_file "corrupt" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove corrupt)
    (fun () ->
      Out_channel.with_open_text corrupt (fun oc ->
          Out_channel.output_string oc ".model broken\n.graph\nthis is not an arc line\n");
      let files =
        [
          Filename.concat benchmarks_dir "fig1.g";
          corrupt;
          "no_such_file.g";
          Filename.concat benchmarks_dir "ring5.g";
        ]
      in
      let errors_before = Metrics.count "batch/errors" in
      let entries = Batch.run ~jobs:4 ~label:Fun.id ~f:analyze_file files in
      match entries with
      | [ fig1; bad; missing; ring5 ] ->
        (match fig1.Batch.outcome with
        | Ok l -> Helpers.check_float "fig1 analyzed" 10. l
        | Error msg -> Alcotest.failf "fig1 should analyze: %s" msg);
        Alcotest.(check bool) "corrupt file yields an error entry" true
          (Result.is_error bad.Batch.outcome);
        Alcotest.(check bool) "missing file yields an error entry" true
          (Result.is_error missing.Batch.outcome);
        (match ring5.Batch.outcome with
        | Ok l -> Helpers.check_float "ring5 still analyzed" (20. /. 3.) l
        | Error msg -> Alcotest.failf "ring5 should analyze: %s" msg);
        Alcotest.(check int) "batch/errors metric bumped" (errors_before + 2)
          (Metrics.count "batch/errors")
      | _ -> Alcotest.fail "expected four entries")

let test_batch_catches_exceptions () =
  let entries =
    Batch.run ~jobs:2 ~label:string_of_int
      ~f:(fun i -> if i mod 2 = 0 then failwith "even" else Ok (i * 10))
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "three entries" 3 (List.length entries);
  List.iter2
    (fun expected (e : _ Batch.entry) ->
      match (expected, e.Batch.outcome) with
      | Some v, Ok v' -> Alcotest.(check int) "value" v v'
      | None, Error _ -> ()
      | _ -> Alcotest.fail "outcome mismatch")
    [ Some 10; None; Some 30 ] entries

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_threaded_through_analyze () =
  Metrics.reset ();
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let report = Cycle_time.analyze g in
  Helpers.check_float "sanity: fig1 lambda" 10. report.Cycle_time.cycle_time;
  Alcotest.(check int) "one graph analyzed" 1 (Metrics.count "analyze/graphs");
  Alcotest.(check int) "one unfolding built" 1 (Metrics.count "unfolding/built");
  Alcotest.(check bool) "instances counted" true (Metrics.count "unfolding/instances" > 0);
  Alcotest.(check int)
    "one initiated simulation per border event, plus the backtrack re-run"
    (List.length report.Cycle_time.border + 1)
    (Metrics.count "simulations/initiated");
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " timed") true (Metrics.count phase = 1);
      Alcotest.(check bool) (phase ^ " non-negative") true (Metrics.total_ms phase >= 0.))
    [ "analyze/unfold"; "analyze/simulate"; "analyze/backtrack" ];
  let json = Tsg_io.Json_report.metrics () in
  Alcotest.(check bool) "metrics JSON mentions the phases" true
    (let contains text needle =
       let n = String.length needle in
       let found = ref false in
       let i = ref 0 in
       while (not !found) && !i + n <= String.length text do
         if String.sub text !i n = needle then found := true else incr i
       done;
       !found
     in
     contains json {|"name":"analyze/unfold"|})

(* ------------------------------------------------------------------ *)
(* Loader dialect sniffing                                             *)

let native_with_comment =
  "# unlike petrify files, no .marking section appears below\n\
   .model sniff\n\
   .graph\n\
   a+ b+ 1\n\
   b+ a+ 1 token\n\
   .end\n"

let test_loader_ignores_comments () =
  Alcotest.(check bool) "comment .marking is not astg" false
    (Tsg_io.Loader.is_astg native_with_comment);
  match Tsg_io.Loader.of_string native_with_comment with
  | Error msg -> Alcotest.failf "native parse failed: %s" msg
  | Ok m ->
    Alcotest.(check bool) "native dialect" true (m.Tsg_io.Loader.dialect = `Native);
    Helpers.check_float "cycle time" 2. (Cycle_time.cycle_time m.Tsg_io.Loader.graph)

let test_loader_detects_astg () =
  let astg =
    ".model tiny\n.graph\na+ b+\nb+ a+\n.marking { <b+,a+> }\n.end\n"
  in
  Alcotest.(check bool) "real .marking is astg" true (Tsg_io.Loader.is_astg astg);
  match Tsg_io.Loader.of_string astg with
  | Error msg -> Alcotest.failf "astg parse failed: %s" msg
  | Ok m -> Alcotest.(check bool) "astg dialect" true (m.Tsg_io.Loader.dialect = `Astg)

let test_loader_sniff_edges () =
  let sniff name want text = Alcotest.(check bool) name want (Tsg_io.Loader.is_astg text) in
  sniff "behind # on its own line" false "# .marking { <b+,a+> }\n.graph\na+ b+ 1\n";
  sniff "behind # after an arc" false ".graph\na+ b+ 1 # .marking\n";
  sniff "a comment ends at its newline" true "# note\n.marking { <b+,a+> }\n";
  sniff "after leading blanks" true ".graph\na+ b+\n  \t.marking { <b+,a+> }\n";
  sniff "at the very end" true ".graph\na+ b+\n.marking";
  sniff "cut short" false ".graph\na+ b+\n.markin";
  let crlf = ".model tiny\r\n.graph\r\na+ b+\r\nb+ a+\r\n.marking { <b+,a+> }\r\n.end\r\n" in
  sniff "in a CRLF file" true crlf;
  match Tsg_io.Loader.of_string crlf with
  | Error msg -> Alcotest.failf "CRLF astg parse failed: %s" msg
  | Ok m -> Alcotest.(check bool) "CRLF astg dialect" true (m.Tsg_io.Loader.dialect = `Astg)

let test_loader_large_input_no_overflow () =
  (* the old scan recursed once per byte; megabytes of comments must
     not overflow the stack *)
  let buf = Buffer.create (1 lsl 21) in
  Buffer.add_string buf "# big preamble\n";
  for _ = 1 to 40_000 do
    Buffer.add_string buf "# padding padding padding padding padding padding\n"
  done;
  Buffer.add_string buf ".model big\n.graph\na+ b+ 1\nb+ a+ 1 token\n.end\n";
  match Tsg_io.Loader.of_string (Buffer.contents buf) with
  | Ok m -> Alcotest.(check bool) "parsed as native" true (m.Tsg_io.Loader.dialect = `Native)
  | Error msg -> Alcotest.failf "large input failed: %s" msg

let prop_batch_equals_sequential =
  Helpers.qcheck_case ~count:30 ~name:"Batch.run equals sequential analysis" (fun g ->
      let text = Tsg_io.Stg_format.to_string g in
      let f text =
        match Tsg_io.Loader.of_string text with
        | Error msg -> Error msg
        | Ok m -> (
          match Cycle_time.cycle_time m.Tsg_io.Loader.graph with
          | l -> Ok l
          | exception Cycle_time.Not_analyzable msg -> Error msg)
      in
      let seq = f text in
      match (Batch.run ~jobs:3 ~label:(fun _ -> "g") ~f [ text; text; text ], seq) with
      | [ a; b; c ], Ok l ->
        List.for_all
          (fun (e : _ Batch.entry) ->
            match e.Batch.outcome with Ok l' -> Helpers.float_close l l' | Error _ -> false)
          [ a; b; c ]
      | [ a; b; c ], Error _ ->
        List.for_all (fun (e : _ Batch.entry) -> Result.is_error e.Batch.outcome) [ a; b; c ]
      | _ -> false)

let suite =
  [
    Alcotest.test_case "Pool.map basics" `Quick test_pool_map_basic;
    Alcotest.test_case "Pool.map reuses its domains" `Quick test_pool_reuses_domains;
    Alcotest.test_case "Pool.map after shutdown" `Quick test_pool_map_after_shutdown;
    Alcotest.test_case "Pool.map deterministic exception" `Quick
      test_pool_exception_deterministic;
    Alcotest.test_case "Pool size capped" `Quick test_pool_size_is_capped;
    Alcotest.test_case "Batch matches sequential on benchmarks/*.g" `Quick
      test_batch_matches_sequential;
    Alcotest.test_case "Batch isolates faults" `Quick test_batch_isolates_faults;
    Alcotest.test_case "Batch catches exceptions" `Quick test_batch_catches_exceptions;
    Alcotest.test_case "Metrics threaded through analyze" `Quick
      test_metrics_threaded_through_analyze;
    Alcotest.test_case "Loader ignores commented .marking" `Quick
      test_loader_ignores_comments;
    Alcotest.test_case "Loader detects real .marking" `Quick test_loader_detects_astg;
    Alcotest.test_case "Loader sniff edge cases" `Quick test_loader_sniff_edges;
    Alcotest.test_case "Loader survives megabyte inputs" `Quick
      test_loader_large_input_no_overflow;
    prop_batch_equals_sequential;
  ]
