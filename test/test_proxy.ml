(* The proxy tier: the breaker state machine (explicit-clock unit
   tests), retry-budget arithmetic, the degraded-marker algebra, and
   [Proxy.forward] over live in-process TCP shards — byte-identity,
   one upstream call per request, budget-exhaustion and deadline
   shedding, degraded stale-serving, breaker trip/recovery, one
   breaker state shared with Router.route, failover counted by the
   router whose loop it is, and a failpoint-stretched
   chaos drill that kills the busiest shard mid-load and demands zero
   client-visible failures. *)

open Tsg_engine

let bench = Test_server.bench
let analyze_req = Test_server.analyze_req

(* ------------------------------------------------------------------ *)
(* Breaker: a pure state machine once [now] is explicit                *)

let state_tt =
  Alcotest.testable
    (fun ppf s ->
      Fmt.string ppf
        (match s with
        | Breaker.Closed -> "closed"
        | Breaker.Open -> "open"
        | Breaker.Half_open -> "half_open"))
    ( = )

let test_breaker_closed_to_open_to_closed () =
  let b = Breaker.create ~window:4 ~failures:2 ~cooldown_ms:1000. () in
  Alcotest.(check state_tt) "starts closed" Breaker.Closed
    (Breaker.state b ~now:0.);
  Alcotest.(check bool) "closed admits" true (Breaker.allow b ~now:0.);
  Alcotest.(check bool) "one failure does not trip" false
    (Breaker.record b ~now:0. ~ok:false);
  Alcotest.(check state_tt) "still closed" Breaker.Closed
    (Breaker.state b ~now:0.);
  Alcotest.(check bool) "second failure trips" true
    (Breaker.record b ~now:0. ~ok:false);
  Alcotest.(check state_tt) "open" Breaker.Open
    (Breaker.state b ~now:0.5);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:0.5);
  (* a late reply from before the trip neither closes nor re-trips *)
  Alcotest.(check bool) "late outcome ignored while open" false
    (Breaker.record b ~now:0.5 ~ok:true);
  Alcotest.(check state_tt) "still open after a late reply" Breaker.Open
    (Breaker.state b ~now:0.5);
  (* cooldown elapses: half-open, exactly one trial *)
  Alcotest.(check state_tt) "half-open after the cooldown" Breaker.Half_open
    (Breaker.state b ~now:1.0);
  Alcotest.(check bool) "the trial is admitted" true
    (Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "only one trial at a time" false
    (Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "a successful trial is not a trip" false
    (Breaker.record b ~now:1.0 ~ok:true);
  Alcotest.(check state_tt) "closed again" Breaker.Closed
    (Breaker.state b ~now:1.0);
  (* closing cleared the window: one failure is one failure again *)
  Alcotest.(check bool) "window was reset on close" false
    (Breaker.record b ~now:1.0 ~ok:false);
  Alcotest.(check state_tt) "one post-recovery failure stays closed"
    Breaker.Closed
    (Breaker.state b ~now:1.0)

let test_breaker_failed_trial_reopens () =
  let b = Breaker.create ~window:4 ~failures:2 ~cooldown_ms:1000. () in
  ignore (Breaker.record b ~now:0. ~ok:false);
  ignore (Breaker.record b ~now:0. ~ok:false);
  Alcotest.(check bool) "trial admitted at t=1" true
    (Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "the failed trial counts as a trip" true
    (Breaker.record b ~now:1.0 ~ok:false);
  Alcotest.(check state_tt) "re-opened" Breaker.Open
    (Breaker.state b ~now:1.5);
  Alcotest.(check state_tt) "a full new cooldown applies" Breaker.Half_open
    (Breaker.state b ~now:2.0)

let test_breaker_abort_returns_the_trial_slot () =
  let b = Breaker.create ~window:4 ~failures:1 ~cooldown_ms:100. () in
  ignore (Breaker.record b ~now:0. ~ok:false);
  Alcotest.(check bool) "trial taken" true (Breaker.allow b ~now:0.2);
  Alcotest.(check bool) "slot busy" false (Breaker.allow b ~now:0.2);
  (* the would-be trial never reached the wire (shard saturated
     locally): the slot goes back, the breaker state is untouched *)
  Breaker.abort b;
  Alcotest.(check state_tt) "still half-open after abort" Breaker.Half_open
    (Breaker.state b ~now:0.2);
  Alcotest.(check bool) "slot available again" true
    (Breaker.allow b ~now:0.2)

(* ------------------------------------------------------------------ *)
(* Retry budget                                                        *)

let test_retry_budget_exhausts_and_refills () =
  let rb = Proxy.Retry_budget.create ~ratio:0.5 ~burst:2. () in
  Alcotest.(check (float 1e-9)) "starts full at burst" 2.
    (Proxy.Retry_budget.balance rb);
  Alcotest.(check bool) "first token" true (Proxy.Retry_budget.try_withdraw rb);
  Alcotest.(check bool) "second token" true (Proxy.Retry_budget.try_withdraw rb);
  Alcotest.(check bool) "exhausted: shed, don't retry" false
    (Proxy.Retry_budget.try_withdraw rb);
  Proxy.Retry_budget.deposit rb;
  Proxy.Retry_budget.deposit rb;
  Alcotest.(check (float 1e-9)) "two primaries fund one token" 1.
    (Proxy.Retry_budget.balance rb);
  Alcotest.(check bool) "refunded token spends" true
    (Proxy.Retry_budget.try_withdraw rb);
  for _ = 1 to 100 do
    Proxy.Retry_budget.deposit rb
  done;
  Alcotest.(check (float 1e-9)) "the burst caps the bucket" 2.
    (Proxy.Retry_budget.balance rb)

(* ------------------------------------------------------------------ *)
(* The degraded marker                                                 *)

let test_degraded_marker_round_trips () =
  let payload = {|{"status":"ok","model":"fig1","report":{"cycle_time":10}}|} in
  let marked = Proxy.mark_degraded payload in
  Alcotest.(check string) "marker spliced first"
    ({|{"degraded":true,"status":"ok","model":"fig1","report":{"cycle_time":10}}|})
    marked;
  Alcotest.(check (option string)) "strip inverts mark exactly" (Some payload)
    (Proxy.strip_degraded marked);
  Alcotest.(check (option string)) "unmarked lines strip to None" None
    (Proxy.strip_degraded payload);
  Alcotest.(check (option string)) "empty object round-trips" (Some "{}")
    (Proxy.strip_degraded (Proxy.mark_degraded "{}"));
  Alcotest.(check string) "non-object payloads pass through unmarked" "plain"
    (Proxy.mark_degraded "plain")

(* ------------------------------------------------------------------ *)
(* Live in-process shards                                              *)

let with_shards ?delay_s n f =
  let shards = List.init n (fun _ -> Helpers.start_shard ?delay_s ()) in
  Fun.protect ~finally:(fun () -> List.iter Helpers.stop_shard shards) (fun () -> f shards)

let with_router eps f = f (Router.create eps)

let fresh_or_fail = function
  | Proxy.Fresh r -> r
  | Proxy.Degraded _ -> Alcotest.fail "unexpected degraded answer"
  | Proxy.Shed (code, msg) -> Alcotest.failf "shed (%s): %s" code msg
  | Proxy.Failed msg -> Alcotest.failf "failed: %s" msg

let test_forward_matches_direct_call () =
  with_shards 3 @@ fun shards ->
  let eps = List.map snd shards in
  with_router eps @@ fun router ->
  let p = Proxy.create router in
  let req = analyze_req (bench "fig1.g") in
  let key = "fig1-digest" in
  let via_proxy = fresh_or_fail (Proxy.forward p ~key req) in
  let home_ep = List.nth eps (Router.home router key) in
  (match Server.call ~endpoint:home_ep [ req ] with
  | [ direct ] ->
    Alcotest.(check string) "proxy adds nothing to the bytes" direct via_proxy
  | _ -> Alcotest.fail "expected one direct response");
  let s = Proxy.stats p in
  Alcotest.(check int) "one request" 1 s.Proxy.requests;
  Alcotest.(check int) "no retries in a healthy fleet" 0 s.Proxy.retries;
  Alcotest.(check (list string)) "all breakers closed"
    [ "closed"; "closed"; "closed" ] s.Proxy.breakers

let test_slow_shards_get_one_call () =
  (* both shards answer after 80 ms; a default proxy still makes
     exactly one upstream call, with no second attempt in its shadow *)
  with_shards ~delay_s:0.08 2 @@ fun shards ->
  let eps = List.map snd shards in
  with_router eps @@ fun router ->
  let p = Proxy.create router in
  ignore
    (fresh_or_fail
       (Proxy.forward p ~key:"ring5-digest" (analyze_req (bench "ring5.g"))));
  (* long enough for any second call to have landed *)
  Thread.delay 0.2;
  let served =
    List.fold_left
      (fun n sh -> n + sh.Router.served)
      0 (Router.stats router).Router.shards
  in
  Alcotest.(check int) "one upstream call" 1 served;
  Alcotest.(check int) "no retries" 0 (Proxy.stats p).Proxy.retries

let test_deadline_shed_is_counted () =
  with_shards 1 @@ fun shards ->
  let eps = List.map snd shards in
  with_router eps @@ fun router ->
  let prefix = "test-proxy-deadline" in
  let p = Proxy.create ~metrics_prefix:prefix router in
  let passed = Deadline.make ~budget_ms:0. () in
  Unix.sleepf 0.002;
  (match
     Deadline.with_deadline passed (fun () ->
         Proxy.forward p ~key:"k" (analyze_req (bench "fig1.g")))
   with
  | Proxy.Shed (code, _) ->
    Alcotest.(check string) "shed as deadline_exceeded" "deadline_exceeded" code
  | _ -> Alcotest.fail "a passed deadline must shed");
  Alcotest.(check int) "the metrics count the shed" 1
    (Metrics.count (prefix ^ "/deadline_shed"));
  Alcotest.(check int) "as do the stats" 1 (Proxy.stats p).Proxy.shed;
  Alcotest.(check int) "no shard was called" 0
    (List.hd (Router.stats router).Router.shards).Router.served

let test_retry_budget_exhaustion_sheds () =
  with_shards 3 @@ fun shards ->
  let eps = List.map snd shards in
  List.iter Helpers.stop_shard shards;
  with_router eps @@ fun router ->
  (* ratio 0, burst 1: the first attempt is free, the first retry
     spends the only token, the second retry must shed *)
  let p = Proxy.create ~retry_ratio:0. ~retry_burst:1. router in
  (match Proxy.forward p ~key:"k" (analyze_req (bench "fig1.g")) with
  | Proxy.Shed (code, msg) ->
    Alcotest.(check string) "shed as overloaded" "overloaded" code;
    Alcotest.(check bool) "the message names the budget" true
      (String.length msg > 0)
  | Proxy.Fresh _ -> Alcotest.fail "a dead fleet cannot answer fresh"
  | Proxy.Degraded _ -> Alcotest.fail "no stale cache was configured"
  | Proxy.Failed msg ->
    Alcotest.failf "budget should have shed before failing: %s" msg);
  let s = Proxy.stats p in
  Alcotest.(check int) "one shed" 1 s.Proxy.shed;
  Alcotest.(check int) "one budgeted retry happened first" 1 s.Proxy.retries

let test_degraded_stale_serving () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsa-test-proxy-dc-%d" (Unix.getpid ()))
  in
  (try
     Array.iter
       (fun f -> try Unix.unlink (Filename.concat dir f) with Unix.Unix_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  let dc = Disk_cache.create ~metrics_prefix:"test-proxy-dc" ~dir () in
  Fun.protect ~finally:(fun () -> Disk_cache.close dc) @@ fun () ->
  let payload = {|{"status":"ok","model":"fig1","report":{"cycle_time":10}}|} in
  Disk_cache.add dc "ck" payload;
  Disk_cache.flush dc;
  with_shards 1 @@ fun shards ->
  let eps = List.map snd shards in
  List.iter Helpers.stop_shard shards;
  with_router eps @@ fun router ->
  let p = Proxy.create ~stale:dc router in
  (match Proxy.forward p ~key:"k" ~cache_key:"ck" "req" with
  | Proxy.Degraded (served, age) ->
    Alcotest.(check string) "stale bytes are the original bytes" payload served;
    Alcotest.(check bool) "age is non-negative" true (age >= 0.);
    (* the wire form round-trips back to the cached original *)
    Alcotest.(check (option string)) "marked line strips to the original"
      (Some payload)
      (Proxy.strip_degraded (Proxy.mark_degraded served))
  | _ -> Alcotest.fail "expected a degraded answer from the stale cache");
  (* a key the cache never held fails instead *)
  (match Proxy.forward p ~key:"k" ~cache_key:"absent" "req" with
  | Proxy.Failed _ -> ()
  | _ -> Alcotest.fail "an absent cache entry cannot be served");
  let s = Proxy.stats p in
  Alcotest.(check int) "one degraded serve" 1 s.Proxy.degraded;
  Alcotest.(check int) "one degraded miss" 1 s.Proxy.degraded_miss

let test_breaker_trips_and_recovers_through_forward () =
  with_shards 1 @@ fun shards ->
  let eps = List.map snd shards in
  let port =
    match List.hd eps with
    | Server.Tcp { port; _ } -> port
    | _ -> Alcotest.fail "expected a TCP endpoint"
  in
  List.iter Helpers.stop_shard shards;
  let router =
    Router.create ~breaker_window:4 ~breaker_failures:2
      ~breaker_cooldown_ms:100. eps
  in
  let p = Proxy.create router in
  let req = analyze_req (bench "fig1.g") in
  let forward () = Proxy.forward p ~key:"k" req in
  (match forward () with Proxy.Failed _ -> () | _ -> Alcotest.fail "dead shard");
  (match forward () with Proxy.Failed _ -> () | _ -> Alcotest.fail "dead shard");
  let s = Proxy.stats p in
  Alcotest.(check int) "two failures tripped the breaker" 1 s.Proxy.breaker_trips;
  Alcotest.(check (list string)) "breaker open" [ "open" ] s.Proxy.breakers;
  (* while open, no connection is even attempted *)
  (match forward () with
  | Proxy.Failed msg ->
    Alcotest.(check bool) "the error names the breakers" true
      (String.length msg > 0 && String.sub msg 0 8 = "no shard")
  | _ -> Alcotest.fail "an open breaker cannot serve");
  (* the shard comes back on its port; after the cooldown the breaker
     admits one trial and a success closes it *)
  let revived = Helpers.start_shard ~port () in
  Fun.protect ~finally:(fun () -> Helpers.stop_shard revived) @@ fun () ->
  Thread.delay 0.15;
  (match forward () with
  | Proxy.Fresh _ -> ()
  | _ -> Alcotest.fail "the half-open trial should have succeeded");
  Alcotest.(check (list string)) "breaker closed after the trial" [ "closed" ]
    (Proxy.stats p).Proxy.breakers

let test_one_breaker_state_for_forward_and_route () =
  (* trip the single shard's breaker through the proxy; Router.route
     on the same router must then refuse without dialing *)
  with_shards 1 @@ fun shards ->
  let eps = List.map snd shards in
  List.iter Helpers.stop_shard shards;
  let router =
    Router.create ~breaker_window:4 ~breaker_failures:2
      ~breaker_cooldown_ms:60_000. eps
  in
  let p = Proxy.create router in
  let req = analyze_req (bench "fig1.g") in
  for _ = 1 to 2 do
    match Proxy.forward p ~key:"k" req with
    | Proxy.Failed _ -> ()
    | _ -> Alcotest.fail "dead shard"
  done;
  Alcotest.(check (list string)) "forward tripped the breaker" [ "open" ]
    (Proxy.stats p).Proxy.breakers;
  let before = Router.stats router in
  (match Router.route router ~key:"k" req with
  | Ok _ -> Alcotest.fail "an open breaker cannot serve"
  | Error e ->
    Alcotest.(check string) "route sees the same open breaker"
      Router.all_open_error e);
  let after = Router.stats router in
  Alcotest.(check int) "nothing was dialed" before.Router.failovers
    after.Router.failovers;
  Alcotest.(check int) "no failure was recorded"
    (List.hd before.Router.shards).Router.failed
    (List.hd after.Router.shards).Router.failed;
  Alcotest.(check bool) "the shard reads unhealthy" false
    (List.hd after.Router.shards).Router.healthy

let test_proxy_failover_is_the_routers () =
  (* the proxy fails over through Router.route, so the router's
     counters see the proxy's traffic: one request, answered off-home
     after the dead home failed, paid for with one budgeted retry *)
  with_shards 3 @@ fun shards ->
  let eps = List.map snd shards in
  with_router eps @@ fun router ->
  let key = "failover-digest" in
  Helpers.stop_shard (List.nth shards (Router.home router key));
  let p = Proxy.create router in
  ignore (fresh_or_fail (Proxy.forward p ~key (analyze_req (bench "fig1.g"))));
  let rs = Router.stats router in
  Alcotest.(check int) "the router counted the request" 1 rs.Router.requests;
  Alcotest.(check int) "answered off-home" 1 rs.Router.rerouted;
  Alcotest.(check bool) "the dead home counted a failover" true
    (rs.Router.failovers >= 1);
  Alcotest.(check int) "one budgeted retry" 1 (Proxy.stats p).Proxy.retries

let test_chaos_kill_busiest_shard_under_load () =
  (* the in-test chaos drill: mixed load through the proxy, the
     busiest shard stops mid-run, and not one request may fail.  The
     server/request failpoint stretches every shard's handler so the
     kill lands among in-flight requests rather than between them. *)
  with_shards 3 @@ fun shards ->
  let eps = List.map snd shards in
  with_router eps @@ fun router ->
  let p = Proxy.create router in
  let models = [| "fig1.g"; "ring5.g"; "stack66.g" |] in
  let keys = Array.map (fun m -> "digest-" ^ m) models in
  let expected =
    Array.mapi
      (fun i m ->
        fresh_or_fail (Proxy.forward p ~key:keys.(i) (analyze_req (bench m))))
      models
  in
  (* the busiest shard is the home of the most keys *)
  let counts = Array.make 3 0 in
  Array.iter
    (fun key ->
      let h = Router.home router key in
      counts.(h) <- counts.(h) + 1)
    keys;
  let busiest = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!busiest) then busiest := i) counts;
  let n_requests = 48 in
  let idx = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let mismatches = Atomic.make 0 in
  (* delay-only injection: stretch every handler so the kill lands on
     in-flight requests (fail:false — the requests must still succeed) *)
  Tsg_obs.Failpoint.activate ~delay_ms:2. ~fail:false "server/request";
  Fun.protect
    ~finally:(fun () -> Tsg_obs.Failpoint.deactivate "server/request")
  @@ fun () ->
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add idx 1 in
      if i < n_requests then begin
        let m = i mod Array.length models in
        (match Proxy.forward p ~key:keys.(m) (analyze_req (bench models.(m))) with
        | Proxy.Fresh r | Proxy.Degraded (r, _) ->
          if r <> expected.(m) then Atomic.incr mismatches
        | Proxy.Shed _ | Proxy.Failed _ -> Atomic.incr failures);
        loop ()
      end
    in
    loop ()
  in
  let killer () =
    (* wait until the load is demonstrably in flight, then kill *)
    while Atomic.get idx < n_requests / 3 do
      Thread.delay 0.002
    done;
    Helpers.stop_shard (List.nth shards !busiest)
  in
  let kt = Thread.create killer () in
  let threads = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Thread.join kt;
  Alcotest.(check int) "zero client-visible failures" 0 (Atomic.get failures);
  Alcotest.(check int) "every answer byte-identical to the healthy baseline" 0
    (Atomic.get mismatches);
  let s = Proxy.stats p in
  Alcotest.(check int) "every request accounted for" (n_requests + 3)
    s.Proxy.requests

let suite =
  [
    Alcotest.test_case "breaker: closed -> open -> half-open -> closed" `Quick
      test_breaker_closed_to_open_to_closed;
    Alcotest.test_case "breaker: failed trial re-opens" `Quick
      test_breaker_failed_trial_reopens;
    Alcotest.test_case "breaker: abort returns the trial slot" `Quick
      test_breaker_abort_returns_the_trial_slot;
    Alcotest.test_case "retry budget exhausts and refills" `Quick
      test_retry_budget_exhausts_and_refills;
    Alcotest.test_case "degraded marker round-trips" `Quick
      test_degraded_marker_round_trips;
    Alcotest.test_case "forward matches a direct call byte-for-byte" `Quick
      test_forward_matches_direct_call;
    Alcotest.test_case "slow shards get one upstream call" `Quick
      test_slow_shards_get_one_call;
    Alcotest.test_case "a deadline shed is counted" `Quick
      test_deadline_shed_is_counted;
    Alcotest.test_case "exhausted retry budget sheds" `Quick
      test_retry_budget_exhaustion_sheds;
    Alcotest.test_case "degraded stale-serve round-trip" `Quick
      test_degraded_stale_serving;
    Alcotest.test_case "breaker trips and recovers through forward" `Quick
      test_breaker_trips_and_recovers_through_forward;
    Alcotest.test_case "forward and route share one breaker state" `Quick
      test_one_breaker_state_for_forward_and_route;
    Alcotest.test_case "chaos: busiest shard dies under load" `Quick
      test_chaos_kill_busiest_shard_under_load;
    Alcotest.test_case "the proxy's failover is the router's" `Quick
      test_proxy_failover_is_the_routers;
  ]
