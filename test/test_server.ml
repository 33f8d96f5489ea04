(* Integration tests of the tsa serve daemon: a real Unix-domain
   socket, the real replica handler (Tsg_io.Service), concurrent
   clients, malformed input, and cache behaviour observed through
   Metrics. *)

open Tsg_engine

let benchmarks_dir = try Sys.getenv "BENCHMARKS" with Not_found -> "../benchmarks"
let bench file = Filename.concat benchmarks_dir file

(* these tests drive the Unix transport; TCP has its own cases below
   and in test_router.ml *)
let call ?retries ?backoff_ms ~socket requests =
  Server.call ?retries ?backoff_ms ~endpoint:(Server.Unix_socket socket) requests

let socket_counter = ref 0

let with_server f =
  incr socket_counter;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsa-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let endpoint = Server.Unix_socket socket in
  let cache, handler =
    Helpers.replica ~metrics_prefix:"test-server" ~endpoint:(fun () -> endpoint) ()
  in
  let server = Thread.create (fun () -> Server.serve ~endpoint ~handler ()) () in
  (* wait for the daemon to bind *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "server socket appeared" true (Sys.file_exists socket);
  Fun.protect
    ~finally:(fun () ->
      (* stop the daemon if the test body has not already done so *)
      (try ignore (call ~socket [ {|{"op":"shutdown"}|} ])
       with Unix.Unix_error _ | Failure _ -> ());
      Thread.join server)
    (fun () -> f ~socket ~cache)

(* response inspection through the protocol's own JSON parser *)
let parse_response line =
  match Protocol.json_of_string line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let status j =
  match Protocol.member "status" j with
  | Some (Protocol.String s) -> s
  | _ -> Alcotest.fail "response without a status field"

let number_at path j =
  let rec go j = function
    | [] -> ( match j with Protocol.Number f -> f | _ -> Alcotest.fail "not a number")
    | k :: rest -> (
      match Protocol.member k j with
      | Some v -> go v rest
      | None -> Alcotest.failf "missing field %S" k)
  in
  go j path

let string_at path j =
  let rec go j = function
    | [] -> ( match j with Protocol.String s -> s | _ -> Alcotest.fail "not a string")
    | k :: rest -> (
      match Protocol.member k j with
      | Some v -> go v rest
      | None -> Alcotest.failf "missing field %S" k)
  in
  go j path

let analyze_req path =
  Protocol.request_to_string
    (Protocol.Analyze { path; periods = None; timeout_ms = None })

let sweep_req path scenarios =
  Protocol.request_to_string
    (Protocol.Sweep
       {
         path;
         scenarios =
           List.map
             (List.map (fun (arc, delta) ->
                  Protocol.Sw_delay { sw_arc = arc; sw_delta = delta }))
             scenarios;
         periods = None;
         jobs = Some 2;
         timeout_ms = None;
       })

(* ------------------------------------------------------------------ *)

let test_round_trip () =
  with_server @@ fun ~socket ~cache:_ ->
  match call ~socket [ analyze_req (bench "fig1.g"); analyze_req (bench "ring5.g") ] with
  | [ fig1; ring5 ] ->
    let fig1 = parse_response fig1 and ring5 = parse_response ring5 in
    Alcotest.(check string) "fig1 ok" "ok" (status fig1);
    Helpers.check_float "fig1 cycle time" 10. (number_at [ "report"; "cycle_time" ] fig1);
    Helpers.check_float "ring5 cycle time" (20. /. 3.)
      (number_at [ "report"; "cycle_time" ] ring5)
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_malformed_request_is_isolated () =
  with_server @@ fun ~socket ~cache:_ ->
  let requests =
    [
      "this is not json";
      {|{"op":"frobnicate"}|};
      {|{"op":"analyze"}|};
      {|{"op":"analyze","path":"no_such_file.g"}|};
      analyze_req (bench "fig1.g");
    ]
  in
  let responses = List.map parse_response (call ~socket requests) in
  (match responses with
  | [ bad_json; bad_op; no_path; no_file; good ] ->
    List.iter
      (fun r -> Alcotest.(check string) "error status" "error" (status r))
      [ bad_json; bad_op; no_path; no_file ];
    (* the connection survived four errors and still answers *)
    Alcotest.(check string) "subsequent request served" "ok" (status good)
  | _ -> Alcotest.fail "expected five responses");
  ()

let test_second_request_is_a_cache_hit () =
  with_server @@ fun ~socket ~cache ->
  let req = analyze_req (bench "stack66.g") in
  let first =
    match call ~socket [ req ] with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  let sims_after_first = Metrics.count "simulations/initiated" in
  let analyzed_after_first = Metrics.count "analyze/graphs" in
  let second =
    match call ~socket [ req ] with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  Alcotest.(check string) "byte-identical response on the cache hit" first second;
  Alcotest.(check int)
    "no second simulation" sims_after_first
    (Metrics.count "simulations/initiated");
  Alcotest.(check int)
    "no second analysis" analyzed_after_first
    (Metrics.count "analyze/graphs");
  let s = Cache.stats cache in
  Alcotest.(check bool) "a hit was recorded" true (s.Cache.hits >= 1);
  Alcotest.(check string) "first response was ok" "ok" (status (parse_response first))

let test_concurrent_clients () =
  with_server @@ fun ~socket ~cache:_ ->
  let files = [ "fig1.g"; "ring5.g"; "fifo2.g"; "fork_join.g" ] in
  let expected = [ 10.; 20. /. 3.; 5.; 7. ] in
  let results = Array.make (List.length files) None in
  let clients =
    List.mapi
      (fun i file ->
        Thread.create
          (fun () ->
            (* every client hammers its file a few times on one connection *)
            let reqs = List.init 3 (fun _ -> analyze_req (bench file)) in
            match call ~socket reqs with
            | responses -> results.(i) <- Some responses
            | exception exn -> results.(i) <- Some [ Printexc.to_string exn ])
          ())
      files
  in
  List.iter Thread.join clients;
  List.iteri
    (fun i lambda ->
      match results.(i) with
      | Some (first :: rest) ->
        let j = parse_response first in
        Alcotest.(check string) "ok" "ok" (status j);
        Helpers.check_float "cycle time" lambda (number_at [ "report"; "cycle_time" ] j);
        List.iter
          (fun r -> Alcotest.(check string) "identical across the connection" first r)
          rest
      | _ -> Alcotest.failf "client %d got no responses" i)
    expected

let test_batch_and_stats () =
  with_server @@ fun ~socket ~cache:_ ->
  let batch =
    Protocol.request_to_string
      (Protocol.Batch
         {
           paths = [ bench "fig1.g"; "no_such_file.g"; bench "fig1.g" ];
           periods = None;
           jobs = Some 2;
           timeout_ms = None;
         })
  in
  match call ~socket [ batch; {|{"op":"stats"}|} ] with
  | [ batch_resp; stats_resp ] ->
    let b = parse_response batch_resp in
    Alcotest.(check string) "batch ok" "ok" (status b);
    Helpers.check_float "three items" 3. (number_at [ "summary"; "total" ] b);
    Helpers.check_float "one failure" 1. (number_at [ "summary"; "failed" ] b);
    let s = parse_response stats_resp in
    Alcotest.(check string) "stats ok" "ok" (status s);
    (* the duplicated fig1.g was served from the cache *)
    Alcotest.(check bool) "cache hits reported" true
      (number_at [ "cache"; "hits" ] s >= 1.);
    (match Protocol.member "metrics" s with
    | Some (Protocol.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "stats response carries a metrics snapshot")
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_stats_reports_latency_percentiles () =
  with_server @@ fun ~socket ~cache:_ ->
  (* several requests first, so the daemon has a latency distribution
     to report *)
  let n = 5 in
  let reqs = List.init n (fun _ -> analyze_req (bench "fig1.g")) in
  ignore (call ~socket reqs);
  match call ~socket [ {|{"op":"stats"}|} ] with
  | [ stats_resp ] -> (
    let s = parse_response stats_resp in
    Alcotest.(check string) "stats ok" "ok" (status s);
    let entries =
      match Protocol.member "latency" s with
      | Some (Protocol.List l) -> l
      | _ -> Alcotest.fail "stats response carries a latency block"
    in
    match
      List.find_opt
        (fun e ->
          Protocol.member "name" e = Some (Protocol.String "server/request_ms"))
        entries
    with
    | None -> Alcotest.fail "no server/request_ms histogram in stats"
    | Some e ->
      Alcotest.(check bool) "every request was measured" true
        (number_at [ "count" ] e >= float_of_int n);
      let p50 = number_at [ "p50_ms" ] e
      and p95 = number_at [ "p95_ms" ] e
      and p99 = number_at [ "p99_ms" ] e
      and max_ms = number_at [ "max_ms" ] e in
      Alcotest.(check bool) "percentiles are monotone" true
        (p50 <= p95 && p95 <= p99 && p99 <= max_ms);
      Alcotest.(check bool) "latencies are positive" true (p50 > 0.))
  | other -> Alcotest.failf "expected one response, got %d" (List.length other)

let test_sweep_round_trip () =
  with_server @@ fun ~socket ~cache:_ ->
  (* four scenarios: a real edit, a joint edit, a zero-delta no-op and
     a bad arc id — plus a plain analyze of the same model to compare
     the short-circuited item against *)
  let sweep =
    sweep_req (bench "stack66.g")
      [ [ (0, 1.5) ]; [ (1, 0.5); (2, 0.25) ]; [ (0, 0.) ]; [ (-7, 1.) ] ]
  in
  match call ~socket [ sweep; analyze_req (bench "stack66.g") ] with
  | [ sweep_resp; analyze_resp ] ->
    let s = parse_response sweep_resp and a = parse_response analyze_resp in
    Alcotest.(check string) "sweep ok" "ok" (status s);
    Helpers.check_float "four scenarios" 4. (number_at [ "summary"; "total" ] s);
    Helpers.check_float "bad arc isolated" 1. (number_at [ "summary"; "failed" ] s);
    let items =
      match Protocol.member "items" s with
      | Some (Protocol.List l) -> Array.of_list l
      | _ -> Alcotest.fail "sweep response carries items"
    in
    Alcotest.(check int) "one item per scenario" 4 (Array.length items);
    Alcotest.(check string) "edit ran warm" "warm" (string_at [ "path" ] items.(0));
    Alcotest.(check string) "joint edit ran warm" "warm" (string_at [ "path" ] items.(1));
    Alcotest.(check string)
      "zero-delta short-circuits" "short_circuit"
      (string_at [ "path" ] items.(2));
    Helpers.check_float "short circuit returns the base analysis"
      (number_at [ "report"; "cycle_time" ] a)
      (number_at [ "report"; "cycle_time" ] items.(2));
    Alcotest.(check string) "bad arc is an error item" "error" (status items.(3))
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_structural_sweep_round_trip () =
  with_server @@ fun ~socket ~cache:_ ->
  (* remove arc 0 and add an identical arc back: a genuinely structural
     scenario whose answer must equal the base analysis — but arrive
     via the warm structural path, not a short-circuit (the arc ids
     permute).  The marking no-op scenario IS a literal no-op and must
     short-circuit.  Old-style delay edits ride in the same request:
     tsa-rpc/3 clients keep working against the tsa-rpc/4 daemon. *)
  let path = bench "stack66.g" in
  let a0 =
    match Tsg_io.Loader.load_file path with
    | Ok m -> (Tsg.Signal_graph.arcs m.Tsg_io.Loader.graph).(0)
    | Error msg -> Alcotest.failf "cannot load %s: %s" path msg
  in
  let sweep =
    Protocol.request_to_string
      (Protocol.Sweep
         {
           path;
           scenarios =
             [
               [
                 Protocol.Sw_remove 0;
                 Protocol.Sw_add
                   {
                     sw_src = Protocol.Ev_id a0.Tsg.Signal_graph.arc_src;
                     sw_dst = Protocol.Ev_id a0.Tsg.Signal_graph.arc_dst;
                     sw_delay = a0.Tsg.Signal_graph.delay;
                     sw_marked = a0.Tsg.Signal_graph.marked;
                   };
               ];
               [ Protocol.Sw_mark { sw_arc = 0; sw_marked = a0.Tsg.Signal_graph.marked } ];
               [ Protocol.Sw_delay { sw_arc = 0; sw_delta = 1.5 } ];
             ];
           periods = None;
           jobs = Some 2;
           timeout_ms = None;
         })
  in
  match call ~socket [ sweep; analyze_req path ] with
  | [ sweep_resp; analyze_resp ] ->
    let s = parse_response sweep_resp and a = parse_response analyze_resp in
    Alcotest.(check string) "sweep ok" "ok" (status s);
    Helpers.check_float "three scenarios" 3. (number_at [ "summary"; "total" ] s);
    Helpers.check_float "none failed" 0. (number_at [ "summary"; "failed" ] s);
    let items =
      match Protocol.member "items" s with
      | Some (Protocol.List l) -> Array.of_list l
      | _ -> Alcotest.fail "sweep response carries items"
    in
    Alcotest.(check string) "remove+re-add ran warm" "warm"
      (string_at [ "path" ] items.(0));
    Helpers.check_float "remove+re-add keeps the cycle time"
      (number_at [ "report"; "cycle_time" ] a)
      (number_at [ "report"; "cycle_time" ] items.(0));
    Alcotest.(check string) "marking no-op short-circuits" "short_circuit"
      (string_at [ "path" ] items.(1));
    Alcotest.(check string) "delay edit still served" "warm"
      (string_at [ "path" ] items.(2))
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_shutdown_removes_socket () =
  with_server @@ fun ~socket ~cache:_ ->
  (match call ~socket [ {|{"op":"shutdown"}|} ] with
  | [ resp ] -> Alcotest.(check string) "shutdown acknowledged" "ok" (status (parse_response resp))
  | _ -> Alcotest.fail "expected one response");
  (* the daemon unlinks its socket on the way out *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Sys.file_exists socket && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

let test_tcp_round_trip_matches_unix () =
  (* the same request over both transports must serve byte-identical
     responses: the transport frames bytes, it never renders them *)
  let req = analyze_req (bench "fig1.g") in
  let unix_resp =
    with_server @@ fun ~socket ~cache:_ ->
    match call ~socket [ req ] with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  let ((_, ep) as shard) = Helpers.start_shard ~metrics_prefix:"test-server-tcp" () in
  Fun.protect ~finally:(fun () -> Helpers.stop_shard shard) @@ fun () ->
  (match ep with
  | Server.Tcp { port; _ } ->
    Alcotest.(check bool) "kernel assigned a real port" true (port > 0)
  | Server.Unix_socket _ -> Alcotest.fail "expected a TCP endpoint");
  match Server.call ~endpoint:ep [ req; req ] with
  | [ first; second ] ->
    Alcotest.(check string) "ok over TCP" "ok" (status (parse_response first));
    Alcotest.(check string) "TCP matches Unix byte-for-byte" unix_resp first;
    Alcotest.(check string) "TCP cache hit is byte-identical" first second
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let suite =
  [
    Alcotest.test_case "analyze round-trip over the socket" `Quick test_round_trip;
    Alcotest.test_case "malformed requests get JSON errors" `Quick
      test_malformed_request_is_isolated;
    Alcotest.test_case "second request is a cache hit" `Quick
      test_second_request_is_a_cache_hit;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "batch request and stats" `Quick test_batch_and_stats;
    Alcotest.test_case "stats reports latency percentiles" `Quick
      test_stats_reports_latency_percentiles;
    Alcotest.test_case "sweep round-trip over the socket" `Quick test_sweep_round_trip;
    Alcotest.test_case "structural sweep round-trip over the socket" `Quick
      test_structural_sweep_round_trip;
    Alcotest.test_case "TCP round-trip matches Unix byte-for-byte" `Quick
      test_tcp_round_trip_matches_unix;
    Alcotest.test_case "shutdown removes the socket" `Quick test_shutdown_removes_socket;
  ]
