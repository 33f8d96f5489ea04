(* End-to-end tests of the tsa command-line tool: real process spawns,
   exit codes, and the benchmark models with their known cycle times. *)

let tsa = try Sys.getenv "TSA" with Not_found -> "tsa"
let tsg_gen = try Sys.getenv "TSG_GEN" with Not_found -> "tsg-gen"
let benchmarks = try Sys.getenv "BENCHMARKS" with Not_found -> "benchmarks"

let run_exe exe args =
  let out = Filename.temp_file "tsa_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let run args = run_exe tsa args

let contains text needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
  go 0

let check_contains what text needle =
  Alcotest.(check bool) (Printf.sprintf "%s contains %S" what needle) true
    (contains text needle)

(* ------------------------------------------------------------------ *)

let test_analyze_builtin () =
  let code, text = run [ "analyze"; "fig1" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "analyze" text "cycle time = 10";
  check_contains "analyze" text "border events (cut set): {a+, b+}";
  check_contains "analyze" text "critical cycle: a+ -3-> c+ -2-> a- -3-> c- -2*-> a+"

let test_analyze_json () =
  let code, text = run [ "analyze"; "fig1"; "--json" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "json" text {|"cycle_time":10|};
  check_contains "json" text {|"border":["a+","b+"]|}

let test_analyze_parallel () =
  let code, text = run [ "analyze"; "stack"; "--jobs"; "4" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "parallel analyze" text "cycle time = 33"

let test_benchmark_models () =
  List.iter
    (fun (file, expected) ->
      let code, text = run [ "analyze"; Filename.concat benchmarks file ] in
      Alcotest.(check int) (file ^ " exit code") 0 code;
      check_contains file text ("cycle time = " ^ expected))
    [
      ("fig1.g", "10");
      ("ring5.g", "6.66667 (= 20/3)");
      ("stack66.g", "33");
      ("two_token_ring.g", "2");
      ("fork_join.g", "7");
      ("fifo2.g", "5");
      ("petrify_ring.g", "4") (* astg dialect, auto-detected *);
    ]

let test_baselines_agree () =
  let code, text = run [ "baselines"; Filename.concat benchmarks "ring5.g" ] in
  Alcotest.(check int) "exit 0" 0 code;
  let occurrences =
    List.length
      (List.filter
         (fun line -> contains line "6.66667 (= 20/3)")
         (String.split_on_char '\n' text))
  in
  Alcotest.(check int) "all six lines agree" 6 occurrences

let test_export_roundtrip () =
  let path = Filename.temp_file "export" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, text = run [ "export"; "ring5" ] in
      Alcotest.(check int) "export exit 0" 0 code;
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      let code, text = run [ "analyze"; path ] in
      Alcotest.(check int) "analyze exported exit 0" 0 code;
      check_contains "roundtrip" text "cycle time = 6.66667 (= 20/3)")

let test_simulate_table () =
  let code, text = run [ "simulate"; "fig1" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "simulate" text "event";
  (* the Example 3 times appear in the table *)
  check_contains "simulate" text "11";
  check_contains "simulate" text "16"

let test_diagram () =
  let code, text = run [ "diagram"; "fig1" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "diagram" text "|~";
  check_contains "diagram" text "_|"

let test_cycles () =
  let code, text = run [ "cycles"; "fig1" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "cycles" text "4 simple cycles";
  check_contains "cycles" text "effective 10"

let test_slack_and_steady () =
  let code, text = run [ "slack"; "fig1" ] in
  Alcotest.(check int) "slack exit 0" 0 code;
  check_contains "slack" text "<== critical";
  let code, text = run [ "steady"; "ring5" ] in
  Alcotest.(check int) "steady exit 0" 0 code;
  check_contains "steady" text "pattern period:   3";
  check_contains "steady" text "6.66667 (= 20/3)"

let test_skew_and_bounds () =
  let code, text = run [ "skew"; "fig1"; "--from"; "a+"; "--to"; "c-" ] in
  Alcotest.(check int) "skew exit 0" 0 code;
  check_contains "skew" text "8";
  let code, text = run [ "bounds"; "fig1"; "--percent"; "10"; "--runs"; "0" ] in
  Alcotest.(check int) "bounds exit 0" 0 code;
  check_contains "bounds" text "[9, 11]"

let test_extract_flow () =
  let code, text = run [ "extract"; "fig1" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "extract" text "distributivity verified";
  check_contains "extract" text "c- a+ 2 token";
  check_contains "extract" text "e- a+ 2 once"

let test_vcd_output () =
  let path = Filename.temp_file "wave" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _ = run [ "vcd"; "fig1"; "-o"; path ] in
      Alcotest.(check int) "exit 0" 0 code;
      let text = In_channel.with_open_text path In_channel.input_all in
      check_contains "vcd" text "$timescale 1ns $end";
      check_contains "vcd" text "$var wire 1")

let test_dot_output () =
  let code, text = run [ "dot"; "fig1" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "dot" text "digraph";
  check_contains "dot" text "label=\"c+\""

let test_pert_and_critical () =
  let code, text = run [ "pert"; Filename.concat benchmarks "project.g" ] in
  Alcotest.(check int) "pert exit 0" 0 code;
  check_contains "pert" text "makespan: 12";
  check_contains "pert" text "critical path: start+ -> order+ -> deliver+ -> build+";
  (* pert on a cyclic model fails with a pointer to analyze *)
  let code, text = run [ "pert"; "fig1" ] in
  Alcotest.(check bool) "cyclic rejected" true (code <> 0);
  check_contains "pert error" text "use Cycle_time";
  let code, text = run [ "critical"; "ring5" ] in
  Alcotest.(check int) "critical exit 0" 0 code;
  check_contains "critical" text "1 critical cycle at cycle time 6.66667 (= 20/3)";
  check_contains "critical" text "eps 3"

let test_parametric () =
  let code, text = run [ "parametric"; "fig1"; "--from"; "c+"; "--to"; "b-" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "parametric" text "x >= 0      : lambda = 10";
  check_contains "parametric" text "x >= 3      : lambda = 7 + 1 x";
  check_contains "parametric" text "breakpoints at 3";
  let code, _ = run [ "parametric"; "fig1"; "--from"; "a+"; "--to"; "b-" ] in
  Alcotest.(check bool) "missing arc fails" true (code <> 0)

let test_check_and_optimize () =
  let code, text = run [ "check"; "fig1" ] in
  Alcotest.(check int) "check exit 0" 0 code;
  check_contains "check" text "switch-over correctness: ok";
  check_contains "check" text "largest token count:     1 (safe)";
  check_contains "check" text "cycle time:              10";
  check_contains "check" text "redundant arcs:          none";
  let code, text = run [ "check"; Filename.concat benchmarks "project.g" ] in
  Alcotest.(check int) "acyclic check exit 0" 0 code;
  check_contains "check acyclic" text "acyclic model (use 'tsa pert')";
  let code, text = run [ "optimize"; "fig1"; "--budget"; "2" ] in
  Alcotest.(check int) "optimize exit 0" 0 code;
  check_contains "optimize" text "final cycle time 8 after spending 2";
  let code, text = run [ "optimize"; "fig1"; "--pad"; "1.0" ] in
  Alcotest.(check int) "pad exit 0" 0 code;
  check_contains "pad" text "total padding 4; cycle time 10 (unchanged)"

let test_generator_pipeline () =
  (* generate with tsg-gen, analyse with tsa: closed forms must hold *)
  let cases =
    [
      ([ "ring"; "--events"; "12"; "--tokens"; "3" ], "cycle time = 4");
      ([ "muller"; "--stages"; "5" ], "cycle time = 6.66667 (= 20/3)");
      ([ "forkjoin"; "--branches"; "2,4" ], "cycle time = 6");
      ([ "handshake"; "--cells"; "4" ], "cycle time = 9");
      ([ "random"; "--events"; "6"; "--extra"; "4"; "--seed"; "3" ], "cycle time =");
    ]
  in
  List.iter
    (fun (gen_args, expected) ->
      let path = Filename.temp_file "gen" ".g" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let code, _ = run_exe tsg_gen (gen_args @ [ "-o"; path ]) in
          Alcotest.(check int) (String.concat " " gen_args ^ " exit") 0 code;
          let code, text = run [ "analyze"; path ] in
          Alcotest.(check int) "analyze exit" 0 code;
          check_contains (String.concat " " gen_args) text expected))
    cases;
  (* invalid parameters fail cleanly *)
  let code, text = run_exe tsg_gen [ "ring"; "--events"; "3"; "--tokens"; "9" ] in
  Alcotest.(check bool) "bad parameters fail" true (code <> 0);
  check_contains "diagnostic" text "tokens out of range"

let test_batch () =
  let files =
    List.map (Filename.concat benchmarks)
      [ "fig1.g"; "ring5.g"; "stack66.g"; "petrify_ring.g" ]
  in
  let code, text = run ([ "batch" ] @ files @ [ "--jobs"; "4" ]) in
  Alcotest.(check int) "batch exit 0" 0 code;
  (* per-file cycle times equal the single-file analyze output *)
  check_contains "batch" text "cycle time = 10";
  check_contains "batch" text "cycle time = 6.66667 (= 20/3)";
  check_contains "batch" text "cycle time = 33";
  check_contains "batch" text "cycle time = 4";
  check_contains "batch" text "4 models analyzed, 0 errors";
  let code, text = run ([ "batch" ] @ files @ [ "--jobs"; "4"; "--json" ]) in
  Alcotest.(check int) "batch --json exit 0" 0 code;
  check_contains "batch json" text {|"cycle_time":10|};
  check_contains "batch json" text {|"cycle_time":6.666666666666667|};
  check_contains "batch json" text {|"status":"ok"|};
  check_contains "batch json" text {|"succeeded":4,"failed":0|};
  check_contains "batch json" text {|"metrics":[|};
  check_contains "batch json" text {|"name":"analyze/simulate"|}

let test_batch_keeps_going_on_malformed_input () =
  let bad = Filename.temp_file "malformed" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      Out_channel.with_open_text bad (fun oc ->
          Out_channel.output_string oc ".model broken\n.graph\nnot an arc line\n.end\n");
      let files = [ Filename.concat benchmarks "fig1.g"; bad; Filename.concat benchmarks "ring5.g" ] in
      let code, text = run ([ "batch" ] @ files @ [ "--jobs"; "4" ]) in
      Alcotest.(check int) "batch with malformed input exits 0" 0 code;
      check_contains "good file before the error" text "cycle time = 10";
      check_contains "error entry" text "ERROR:";
      check_contains "good file after the error" text "cycle time = 6.66667 (= 20/3)";
      check_contains "summary" text "3 models analyzed, 1 error";
      let code, text = run ([ "batch" ] @ files @ [ "--json" ]) in
      Alcotest.(check int) "json batch with malformed input exits 0" 0 code;
      check_contains "json error entry" text {|"status":"error"|};
      check_contains "json summary" text {|"succeeded":2,"failed":1|})

let test_dialect_sniffing_ignores_comments () =
  (* regression: a native .g whose comments mention .marking used to be
     misclassified as the astg dialect and rejected *)
  let path = Filename.temp_file "sniff" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "# native dialect: there is no .marking section in this format\n\
             .model sniff\n\
             .graph\n\
             a+ b+ 1\n\
             b+ a+ 1 token\n\
             .end\n");
      let code, text = run [ "analyze"; path ] in
      Alcotest.(check int) "native file with .marking comment analyzes" 0 code;
      check_contains "sniff" text "cycle time = 2")

let test_error_handling () =
  let code, _ = run [ "analyze"; "/nonexistent/model.g" ] in
  Alcotest.(check bool) "missing file fails" true (code <> 0);
  let code, _ = run [ "analyze" ] in
  Alcotest.(check bool) "missing argument fails" true (code <> 0);
  let code, _ = run [ "frobnicate"; "fig1" ] in
  Alcotest.(check bool) "unknown command fails" true (code <> 0);
  let bad = Filename.temp_file "bad" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      Out_channel.with_open_text bad (fun oc ->
          Out_channel.output_string oc ".graph\na+ b+ 1\nb+ a+ 1\n.end\n");
      (* token-free cycle: must fail with a diagnostic, not crash *)
      let code, text = run [ "analyze"; bad ] in
      Alcotest.(check bool) "invalid graph fails" true (code <> 0);
      check_contains "diagnostic" text "token-free cycle")

(* ------------------------------------------------------------------ *)
(* tsa fleet                                                           *)

(* read [fd] into [buf] until it holds [needle]; fail after [timeout_s] *)
let read_until ?(timeout_s = 30.) fd buf needle =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if not (contains (Buffer.contents buf) needle) then begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then
        Alcotest.failf "no %S within %.0f s; output so far: %S" needle timeout_s
          (Buffer.contents buf);
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.failf "EOF before %S: %S" needle (Buffer.contents buf);
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    end
  in
  go ()

let test_fleet_proxy_lifecycle () =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process tsa [| "tsa"; "fleet"; "-n"; "2"; "--proxy" |] Unix.stdin out_w null
  in
  Unix.close out_w;
  Unix.close null;
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      Unix.close out_r)
  @@ fun () ->
  let buf = Buffer.create 256 in
  read_until out_r buf "fleet: ready\n";
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let field prefix line =
    let n = String.length prefix in
    if String.length line >= n && String.sub line 0 n = prefix then
      Some (String.sub line n (String.length line - n))
    else None
  in
  let replica i line =
    match field (Printf.sprintf "replica %d: pid " i) line with
    | Some rest -> (
      match String.split_on_char ' ' rest with
      | [ pid; ep ] when int_of_string_opt pid <> None -> ep
      | _ -> Alcotest.failf "bad replica line %S" line)
    | None -> Alcotest.failf "expected replica %d's line, got %S" i line
  in
  match lines with
  | [ r0; r1; eps; proxy; "fleet: ready"; "" ] ->
    let ep0 = replica 0 r0 and ep1 = replica 1 r1 in
    Alcotest.(check (option string)) "endpoints line" (Some (ep0 ^ "," ^ ep1))
      (field "fleet: endpoints " eps);
    let via =
      match field "fleet: proxy " proxy with
      | Some via -> via
      | None -> Alcotest.failf "expected the proxy line, got %S" proxy
    in
    let code, text = run [ "client"; "--via"; via; "fig1" ] in
    Alcotest.(check int) "client --via exit 0" 0 code;
    check_contains "client --via fig1" text {|"cycle_time":10|};
    let code, _ = run [ "client"; "--via"; via; "--shutdown" ] in
    Alcotest.(check int) "client --via --shutdown exit 0" 0 code;
    read_until out_r buf "fleet: stopped\n";
    reaped := true;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "tsa fleet did not exit 0")
  | _ -> Alcotest.failf "unexpected fleet announcement: %S" (Buffer.contents buf)

(* port P held by this process (listening or only bound) while P+1 is
   free: replica 0 of [tsa fleet -n 2 --base-port P] cannot start and
   replica 1 can, so the fleet must fail fast and stop replica 1 *)
let check_fleet_fails_fast ~listen () =
  let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec hold tries =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind s (loopback 0);
    let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
    let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let next_free = try Unix.bind probe (loopback (port + 1)); true with Unix.Unix_error _ -> false in
    Unix.close probe;
    if next_free || tries = 0 then (s, port) else (Unix.close s; hold (tries - 1))
  in
  let s, port = hold 20 in
  if listen then Unix.listen s 8;
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let code, text =
    run_exe "timeout" [ "30"; tsa; "fleet"; "-n"; "2"; "--base-port"; string_of_int port ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "exit 1" 1 code;
  check_contains "fleet" text "fleet failed to come up";
  Alcotest.(check bool) (Printf.sprintf "gave up within 5 s (took %.1f s)" elapsed) true
    (elapsed < 5.);
  let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
  match Unix.connect c (loopback (port + 1)) with
  | () -> Alcotest.fail "replica 1 was left running"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

let () =
  Alcotest.run "tsa-cli"
    [
      ( "cli",
        [
          Alcotest.test_case "analyze built-in" `Quick test_analyze_builtin;
          Alcotest.test_case "analyze --json" `Quick test_analyze_json;
          Alcotest.test_case "analyze --jobs" `Quick test_analyze_parallel;
          Alcotest.test_case "benchmark models" `Quick test_benchmark_models;
          Alcotest.test_case "baselines agree" `Quick test_baselines_agree;
          Alcotest.test_case "export/analyze roundtrip" `Quick test_export_roundtrip;
          Alcotest.test_case "simulate table" `Quick test_simulate_table;
          Alcotest.test_case "diagram" `Quick test_diagram;
          Alcotest.test_case "cycles" `Quick test_cycles;
          Alcotest.test_case "slack and steady" `Quick test_slack_and_steady;
          Alcotest.test_case "skew and bounds" `Quick test_skew_and_bounds;
          Alcotest.test_case "extract flow" `Quick test_extract_flow;
          Alcotest.test_case "vcd output" `Quick test_vcd_output;
          Alcotest.test_case "dot output" `Quick test_dot_output;
          Alcotest.test_case "pert and critical" `Quick test_pert_and_critical;
          Alcotest.test_case "parametric" `Quick test_parametric;
          Alcotest.test_case "check and optimize" `Quick test_check_and_optimize;
          Alcotest.test_case "tsg-gen pipeline" `Quick test_generator_pipeline;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "batch keeps going on malformed input" `Quick
            test_batch_keeps_going_on_malformed_input;
          Alcotest.test_case "dialect sniffing ignores comments" `Quick
            test_dialect_sniffing_ignores_comments;
          Alcotest.test_case "error handling" `Quick test_error_handling;
          Alcotest.test_case "fleet --proxy lifecycle" `Quick test_fleet_proxy_lifecycle;
          Alcotest.test_case "fleet fails fast: port taken by a listener" `Quick
            (check_fleet_fails_fast ~listen:true);
          Alcotest.test_case "fleet fails fast: port bound, not listening" `Quick
            (check_fleet_fails_fast ~listen:false);
        ] );
    ]
