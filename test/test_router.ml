(* The client-side shard router: rendezvous determinism, routing over
   a live TCP fleet (in-process replicas running the real handler),
   failover when a replica dies mid-run and its breaker tripping, a
   restarted replica rejoining through the half-open trial, admission
   shedding that never charges a breaker, and deadline refusal. *)

open Tsg_engine

let analyze_req = Test_server.analyze_req
let parse_response = Test_server.parse_response
let status = Test_server.status
let bench = Test_server.bench

let shard_name r i = Server.endpoint_to_string (List.nth (Router.endpoints r) i)

(* ------------------------------------------------------------------ *)
(* Pure hashing: no servers involved                                   *)

let fake_endpoints = List.map (fun p -> Server.Unix_socket p) [ "/a"; "/b"; "/c"; "/d" ]

let test_rendezvous_is_deterministic () =
  let r1 = Router.create fake_endpoints in
  let r2 = Router.create (List.rev fake_endpoints) in
  let keys = List.init 64 (fun i -> Printf.sprintf "digest-%d" (i * 37)) in
  List.iter
    (fun key ->
      (* the home shard is a property of (key, shard names), not of
         the order the endpoints were listed in *)
      Alcotest.(check string)
        (Printf.sprintf "home of %s is order-independent" key)
        (shard_name r1 (Router.home r1 key))
        (shard_name r2 (Router.home r2 key));
      Alcotest.(check (list int))
        "rank is a permutation of the shard indices"
        (List.init 4 Fun.id)
        (List.sort compare (Router.rank r1 key)))
    keys;
  (* rendezvous spreads keys: every shard is home to some key *)
  let homes = List.map (Router.home r1) keys in
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns at least one key" i)
        true
        (List.mem i homes))
    fake_endpoints

let test_removing_a_shard_only_moves_its_keys () =
  (* the consistent-hashing property: dropping /d only reassigns keys
     whose home was /d — everyone else keeps their shard *)
  let r_all = Router.create fake_endpoints in
  let survivors = List.filter (fun ep -> ep <> Server.Unix_socket "/d") fake_endpoints in
  let r_less = Router.create survivors in
  let keys = List.init 128 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun key ->
      let before = shard_name r_all (Router.home r_all key) in
      let after = shard_name r_less (Router.home r_less key) in
      if before <> "/d" then
        Alcotest.(check string) "unaffected key stayed home" before after)
    keys

(* ------------------------------------------------------------------ *)
(* A live TCP fleet (in-process replicas)                              *)

let with_fleet n f =
  let servers =
    List.init n (fun _ -> Helpers.start_shard ~metrics_prefix:"test-router" ())
  in
  Fun.protect
    ~finally:(fun () -> List.iter Helpers.stop_shard servers)
    (fun () -> f servers)

let route_ok r ~key request =
  match Router.route r ~key request with
  | Ok response -> response
  | Error e -> Alcotest.failf "route failed: %s" e

let test_route_over_live_fleet () =
  with_fleet 3 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~retries:1 ~backoff_ms:10. eps in
  let req = analyze_req (bench "fig1.g") in
  let key = "fig1-digest" in
  let via_router = route_ok r ~key req in
  Alcotest.(check string) "routed response ok" "ok" (status (parse_response via_router));
  (* byte-identity with a direct call to the home replica *)
  let home_ep = List.nth eps (Router.home r key) in
  (match Server.call ~endpoint:home_ep [ req ] with
  | [ direct ] ->
    Alcotest.(check string) "router adds nothing to the bytes" direct via_router
  | _ -> Alcotest.fail "expected one direct response");
  (* same key, same bytes, no rerouting while the fleet is healthy *)
  Alcotest.(check string) "second routed call identical" via_router
    (route_ok r ~key req);
  let s = Router.stats r in
  Alcotest.(check int) "two routed requests" 2 s.Router.requests;
  Alcotest.(check int) "no rerouting in a healthy fleet" 0 s.Router.rerouted;
  Alcotest.(check int) "no failovers in a healthy fleet" 0 s.Router.failovers

let test_failover_when_replica_dies () =
  with_fleet 3 @@ fun servers ->
  let eps = List.map snd servers in
  (* default window and threshold; a long cooldown so a slow host
     cannot reach the half-open trial mid-test *)
  let r =
    Router.create ~retries:1 ~backoff_ms:10. ~breaker_cooldown_ms:60_000. eps
  in
  let req = analyze_req (bench "ring5.g") in
  let key = "ring5-digest" in
  let before = route_ok r ~key req in
  (* kill the key's home replica — the worst-case victim *)
  let home = Router.home r key in
  Helpers.stop_shard (List.nth servers home);
  let after = route_ok r ~key req in
  Alcotest.(check string) "failover response still ok" "ok"
    (status (parse_response after));
  Alcotest.(check string) "failover response byte-identical" before after;
  let s = Router.stats r in
  Alcotest.(check bool) "the dead replica cost a failover" true (s.Router.failovers >= 1);
  Alcotest.(check bool) "the request was rerouted off its home" true
    (s.Router.rerouted >= 1);
  (* keep routing until the dead home's breaker trips (the default is
     5 failures in a window of 16); every request still answers *)
  let rec drive n =
    let s = Router.stats r in
    if (List.nth s.Router.shards home).Router.breaker = Breaker.Open then s
    else if n = 0 then Alcotest.fail "the dead shard's breaker never tripped"
    else begin
      Alcotest.(check string) "failover keeps answering" before
        (route_ok r ~key req);
      drive (n - 1)
    end
  in
  let s = drive 16 in
  Alcotest.(check int) "five failures tripped the breaker once" 1
    s.Router.breaker_trips;
  Alcotest.(check bool) "dead shard reads unhealthy" false
    (List.nth s.Router.shards home).Router.healthy;
  (* with the breaker open, the next request skips the home outright:
     no new failover, one more reroute *)
  let failovers_before = s.Router.failovers in
  Alcotest.(check string) "routing keeps working" before (route_ok r ~key req);
  let s = Router.stats r in
  Alcotest.(check int) "the open breaker skips the dead shard without a failover"
    failovers_before s.Router.failovers

let test_broadcast () =
  with_fleet 2 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~retries:1 ~backoff_ms:10. eps in
  let replies = Router.broadcast r {|{"op":"stats"}|} in
  Alcotest.(check int) "one reply per replica" 2 (List.length replies);
  List.iter
    (fun (_, result) ->
      match result with
      | Ok resp -> Alcotest.(check string) "stats ok" "ok" (status (parse_response resp))
      | Error e -> Alcotest.failf "broadcast leg failed: %s" e)
    replies;
  Helpers.stop_shard (List.nth servers 0);
  let replies = Router.broadcast r {|{"op":"stats"}|} in
  let ok_count =
    List.length (List.filter (fun (_, res) -> Result.is_ok res) replies)
  in
  Alcotest.(check int) "dead replica reported per-shard, not fatally" 1 ok_count

let test_broadcast_saturation_charges_no_breaker () =
  (* the router's own admission cap refuses every leg before any
     connection attempt; no shard may be charged for it *)
  with_fleet 2 @@ fun servers ->
  let r = Router.create ~max_inflight:0 (List.map snd servers) in
  List.iter
    (fun (_, result) ->
      Alcotest.(check (result string string)) "saturation error"
        (Error "shard saturated") result)
    (Router.broadcast r {|{"op":"stats"}|});
  List.iter
    (fun sh ->
      Alcotest.(check bool) "shard still healthy" true sh.Router.healthy;
      Alcotest.(check bool) "breaker still closed" true
        (sh.Router.breaker = Breaker.Closed);
      Alcotest.(check int) "no failure charged" 0 sh.Router.failed)
    (Router.stats r).Router.shards

let test_saturated_fleet_sheds () =
  with_fleet 1 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~max_inflight:0 eps in
  match Router.route r ~key:"k" (analyze_req (bench "fig1.g")) with
  | Ok _ -> Alcotest.fail "a saturated fleet must shed, not serve"
  | Error e ->
    let has_sub needle =
      let n = String.length needle and len = String.length e in
      let rec go i = i + n <= len && (String.sub e i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "the error names the condition" true
      (has_sub "no shard available")

let test_restarted_replica_rejoins_after_half_open_trial () =
  with_fleet 2 @@ fun servers ->
  let eps = List.map snd servers in
  (* one failure trips a breaker; 100 ms later it admits a trial *)
  let r =
    Router.create ~backoff_ms:5. ~breaker_window:4
      ~breaker_failures:1 ~breaker_cooldown_ms:100. eps
  in
  let req = analyze_req (bench "fig1.g") in
  let key = "rejoin-digest" in
  ignore (route_ok r ~key req);
  let home = Router.home r key in
  Helpers.stop_shard (List.nth servers home);
  (* the next request fails over and trips the home's breaker *)
  ignore (route_ok r ~key req);
  let s = Router.stats r in
  Alcotest.(check bool) "home reads unhealthy" false
    (List.nth s.Router.shards home).Router.healthy;
  (* resurrect a replica on the same port *)
  let port =
    match List.nth eps home with
    | Server.Tcp { port; _ } -> port
    | _ -> Alcotest.fail "expected a TCP endpoint"
  in
  let revived = Helpers.start_shard ~port ~metrics_prefix:"test-router-rejoin" () in
  Fun.protect ~finally:(fun () -> Helpers.stop_shard revived)
  @@ fun () ->
  (* past the cooldown the next request is the half-open trial: it
     goes to the home, succeeds, and closes the breaker *)
  Thread.delay 0.15;
  let s = Router.stats r in
  let failovers_before = s.Router.failovers
  and rerouted_before = s.Router.rerouted in
  Alcotest.(check string) "restored shard serves" "ok"
    (status (parse_response (route_ok r ~key req)));
  let s = Router.stats r in
  Alcotest.(check int) "no failover after recovery" failovers_before
    s.Router.failovers;
  Alcotest.(check int) "answered by the home shard" rerouted_before
    s.Router.rerouted;
  Alcotest.(check bool) "home reads healthy again" true
    (List.nth s.Router.shards home).Router.healthy

let test_expired_deadline_refused_before_dialing () =
  let r = Router.create fake_endpoints in
  let d = Deadline.make ~budget_ms:0.001 () in
  Unix.sleepf 0.01;
  Deadline.with_deadline d (fun () ->
      match Router.route r ~key:"k" {|{"op":"stats"}|} with
      | Ok _ -> Alcotest.fail "an expired deadline must not be served"
      | Error e ->
        Alcotest.(check bool) "deadline error surfaced" true
          (String.length e > 0))

let suite =
  [
    Alcotest.test_case "rendezvous hashing is deterministic" `Quick
      test_rendezvous_is_deterministic;
    Alcotest.test_case "removing a shard only moves its keys" `Quick
      test_removing_a_shard_only_moves_its_keys;
    Alcotest.test_case "routing over a live TCP fleet" `Quick test_route_over_live_fleet;
    Alcotest.test_case "failover when a replica dies" `Quick
      test_failover_when_replica_dies;
    Alcotest.test_case "broadcast reaches every replica" `Quick test_broadcast;
    Alcotest.test_case "broadcast saturation charges no breaker" `Quick
      test_broadcast_saturation_charges_no_breaker;
    Alcotest.test_case "saturated fleet sheds instead of queueing" `Quick
      test_saturated_fleet_sheds;
    Alcotest.test_case "restarted replica rejoins via half-open trial" `Quick
      test_restarted_replica_rejoins_after_half_open_trial;
    Alcotest.test_case "expired deadline refused before dialing" `Quick
      test_expired_deadline_refused_before_dialing;
  ]
