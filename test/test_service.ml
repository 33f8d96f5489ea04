(* Serving policy (Tsg_io.Service): the routing key every client and
   proxy hashes on, and the proxy's degraded read of the
   replica's disk-cache key. *)

open Tsg_engine
module Service = Tsg_io.Service

let bench = Test_server.bench
let analyze_req = Test_server.analyze_req

let digest_of path =
  match Service.load_model path with
  | Ok (_, g) -> Tsg.Signal_graph.digest g
  | Error msg -> Alcotest.failf "cannot load %s: %s" path msg

let test_routing_key_per_request_shape () =
  let fig1 = bench "fig1.g" and ring5 = bench "ring5.g" in
  let missing = "no_such_model.g" in
  let sweep path =
    Protocol.Sweep
      {
        path;
        scenarios = [ [ Protocol.Sw_delay { sw_arc = 0; sw_delta = 1. } ] ];
        periods = None;
        jobs = None;
        timeout_ms = None;
      }
  in
  let batch paths = Protocol.Batch { paths; periods = None; jobs = None; timeout_ms = None } in
  let analyze ?periods path = Protocol.Analyze { path; periods; timeout_ms = None } in
  List.iter
    (fun (name, req, expected) ->
      Alcotest.(check (option string)) name expected (Service.routing_key req))
    [
      ("analyze: the digest", analyze fig1, Some (digest_of fig1));
      ("analyze: periods do not move the key", analyze ~periods:7 fig1, Some (digest_of fig1));
      ("analyze: a built-in by digest", analyze "fig1", Some (digest_of "fig1"));
      ("analyze: an unloadable path routes on itself", analyze missing, Some missing);
      ("sweep: the digest", sweep ring5, Some (digest_of ring5));
      ("sweep: an unloadable path routes on itself", sweep missing, Some missing);
      ("batch of one: the digest", batch [ fig1 ], Some (digest_of fig1));
      ("batch of several: the joined paths", batch [ fig1; missing ],
        Some (fig1 ^ "," ^ missing));
      ("stats: broadcast", Protocol.Stats, None);
      ("shutdown: broadcast", Protocol.Shutdown, None);
    ]

let test_cache_key_shape () =
  let _, g = Result.get_ok (Service.load_model "fig1") in
  let d = Tsg.Signal_graph.digest g in
  Alcotest.(check string) "default horizon" (d ^ "|fig1|b") (Service.cache_key "fig1" g);
  Alcotest.(check string) "explicit horizon" (d ^ "|m|3")
    (Service.cache_key ~periods:3 "m" g)

let reply = function Server.Reply r -> r | Server.Final r -> Alcotest.failf "final %s" r

let test_degraded_read_matches_replica_write () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsa-test-service-dc-%d" (Unix.getpid ()))
  in
  (try
     Array.iter
       (fun f -> try Unix.unlink (Filename.concat dir f) with Unix.Unix_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  let dc = Disk_cache.create ~metrics_prefix:"test-service-dc" ~dir () in
  let stale = Disk_cache.create ~metrics_prefix:"test-service-stale" ~dir () in
  Fun.protect ~finally:(fun () -> Disk_cache.close dc; Disk_cache.close stale)
  @@ fun () ->
  (* the replica answers and writes its disk tier *)
  let dead = Server.Unix_socket (Filename.concat dir "no-shard.sock") in
  let _, replica =
    Helpers.replica ~metrics_prefix:"test-service" ~disk_cache:dc
      ~endpoint:(fun () -> dead) ()
  in
  let req = analyze_req (bench "stack66.g") in
  let fresh = reply (replica req) in
  Alcotest.(check string) "the replica answered" "ok"
    (Test_server.status (Test_server.parse_response fresh));
  Disk_cache.flush dc;
  (* the proxy's only shard is down, so it must serve the stale entry *)
  let router = Router.create ~retries:0 [ dead ] in
  let proxy = Proxy.create ~stale router in
  let degraded =
    reply
      (Service.proxy_handler ~router ~proxy ~stale:(Some stale)
         ~endpoint:(fun () -> dead) req)
  in
  Alcotest.(check bool) "marked degraded" true
    (String.starts_with ~prefix:{|{"degraded":true,|} degraded);
  Alcotest.(check (option string)) "stripped, the replica's bytes exactly" (Some fresh)
    (Proxy.strip_degraded degraded);
  Alcotest.(check int) "one degraded serve" 1 (Proxy.stats proxy).Proxy.degraded

let suite =
  [
    Alcotest.test_case "routing key per request shape" `Quick
      test_routing_key_per_request_shape;
    Alcotest.test_case "cache key shape" `Quick test_cache_key_shape;
    Alcotest.test_case "proxy degraded read matches the replica's write" `Quick
      test_degraded_read_matches_replica_write;
  ]
