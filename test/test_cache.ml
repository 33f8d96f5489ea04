(* The content-addressed result cache: canonical digests, LRU policy,
   counters, and agreement of cached with uncached analysis. *)

open Tsg
open Tsg_engine

(* fig1-ish oscillator described twice with different declaration
   orders; same graph, so same canonical form and digest *)
let two_event_ring ~order ~delay_ab =
  let a = Event.rise "a" and b = Event.rise "b" in
  let events =
    let decls = [ (a, Signal_graph.Repetitive); (b, Signal_graph.Repetitive) ] in
    if order = `Forward then decls else List.rev decls
  in
  let arcs =
    let decls = [ (a, b, delay_ab, false); (b, a, 3.0, true) ] in
    if order = `Forward then decls else List.rev decls
  in
  Signal_graph.of_arcs ~events ~arcs

let test_digest_stable_under_reordering () =
  let g1 = two_event_ring ~order:`Forward ~delay_ab:2.0 in
  let g2 = two_event_ring ~order:`Reversed ~delay_ab:2.0 in
  Alcotest.(check string)
    "same canonical form"
    (Signal_graph.canonical_form g1)
    (Signal_graph.canonical_form g2);
  Alcotest.(check string) "same digest" (Signal_graph.digest g1) (Signal_graph.digest g2)

let test_digest_distinguishes_content () =
  let g1 = two_event_ring ~order:`Forward ~delay_ab:2.0 in
  let g2 = two_event_ring ~order:`Forward ~delay_ab:2.5 in
  Alcotest.(check bool)
    "different delay, different digest" false
    (Signal_graph.digest g1 = Signal_graph.digest g2)

let test_digest_exact_on_close_delays () =
  (* decimal printing would merge delays closer than its precision;
     the hex canonical form must not *)
  let d = 2.0 in
  let d' = Float.succ d in
  let g1 = two_event_ring ~order:`Forward ~delay_ab:d in
  let g2 = two_event_ring ~order:`Forward ~delay_ab:d' in
  Alcotest.(check bool)
    "adjacent floats get distinct digests" false
    (Signal_graph.digest g1 = Signal_graph.digest g2)

(* ------------------------------------------------------------------ *)
(* LRU policy                                                          *)

let test_lru_eviction_order () =
  let c = Cache.create ~metrics_prefix:"test-lru" ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* touch "a" so "b" is the least recently used *)
  Alcotest.(check (option int)) "a cached" (Some 1) (Cache.find c "a");
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  Alcotest.(check int) "two entries" 2 (Cache.length c)

let test_lru_replace_does_not_evict () =
  let c = Cache.create ~metrics_prefix:"test-replace" ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "a" 10;
  Alcotest.(check (option int)) "replaced value" (Some 10) (Cache.find c "a");
  Alcotest.(check (option int)) "b untouched" (Some 2) (Cache.find c "b");
  Alcotest.(check int) "no eviction" 0 (Cache.stats c).Cache.evictions

let test_hit_miss_counters () =
  let prefix = "test-counters" in
  let hits0 = Metrics.count (prefix ^ "/hits") in
  let misses0 = Metrics.count (prefix ^ "/misses") in
  let c = Cache.create ~metrics_prefix:prefix ~capacity:4 () in
  ignore (Cache.find c "k");
  Cache.add c "k" 7;
  ignore (Cache.find c "k");
  ignore (Cache.find c "k");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "metrics hits" (hits0 + 2) (Metrics.count (prefix ^ "/hits"));
  Alcotest.(check int) "metrics misses" (misses0 + 1) (Metrics.count (prefix ^ "/misses"))

let test_find_or_add_computes_once () =
  let c = Cache.create ~metrics_prefix:"test-foa" ~capacity:4 () in
  let computed = ref 0 in
  let compute () =
    incr computed;
    !computed * 100
  in
  Alcotest.(check int) "computed on miss" 100 (Cache.find_or_add c "k" compute);
  Alcotest.(check int) "served on hit" 100 (Cache.find_or_add c "k" compute);
  Alcotest.(check int) "one computation" 1 !computed

(* a second caller arriving while the first computes is served the
   first's value (usually by waiting for it, else from the stored
   entry) — never a second computation; if the first computation
   raises, the second caller computes the key itself *)
let test_find_or_add_shares_inflight () =
  let c = Cache.create ~metrics_prefix:"test-foa-flight" ~capacity:4 () in
  let computed = Atomic.make 0 in
  let started = Atomic.make false and release = Atomic.make false in
  let gated outcome () =
    Atomic.incr computed;
    Atomic.set started true;
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done;
    outcome ()
  in
  let race key first second =
    Atomic.set started false;
    Atomic.set release false;
    let r1 = ref None in
    let t1 =
      Thread.create
        (fun () -> r1 := Some (try Ok (Cache.find_or_add c key first) with e -> Error e))
        ()
    in
    while not (Atomic.get started) do
      Unix.sleepf 0.001
    done;
    let r2 = ref None in
    let t2 = Thread.create (fun () -> r2 := Some (Cache.find_or_add c key second)) () in
    Unix.sleepf 0.05;
    Atomic.set release true;
    Thread.join t1;
    Thread.join t2;
    (Option.get !r1, Option.get !r2)
  in
  (match race "k" (gated (fun () -> 1)) (gated (fun () -> 2)) with
  | Ok 1, 1 -> ()
  | _ -> Alcotest.fail "both callers get the first caller's value");
  Alcotest.(check int) "computed once" 1 (Atomic.get computed);
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  (match race "e" (gated (fun () -> failwith "boom")) (fun () -> 7) with
  | Error (Failure _), 7 -> ()
  | _ -> Alcotest.fail "the first caller's exception stays its own");
  Alcotest.(check (option int)) "the survivor's value is stored" (Some 7) (Cache.find c "e")

(* a waiter's deadline bounds its wait, even when the computation it
   waits for has none *)
let test_find_or_add_wait_obeys_deadline () =
  let c = Cache.create ~metrics_prefix:"test-foa-deadline" ~capacity:4 () in
  let started = Atomic.make false and release = Atomic.make false in
  let leader =
    Thread.create
      (fun () ->
        Cache.find_or_add c "k" (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            1))
      ()
  in
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  let t0 = Unix.gettimeofday () in
  (* lets the leader finish after a second even if the waiter hangs
     on, so a waiter that ignores its deadline fails instead of
     blocking the suite *)
  let backstop =
    Thread.create
      (fun () ->
        while (not (Atomic.get release)) && Unix.gettimeofday () -. t0 < 1. do
          Unix.sleepf 0.001
        done;
        Atomic.set release true)
      ()
  in
  let outcome =
    try
      Ok
        (Deadline.with_deadline (Deadline.make ~budget_ms:20. ()) (fun () ->
             Cache.find_or_add c "k" (fun () -> 2)))
    with Deadline.Deadline_exceeded -> Error ()
  in
  let waited_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Atomic.set release true;
  Thread.join backstop;
  Thread.join leader;
  Alcotest.(check bool) "the waiter times out" true (outcome = Error ());
  Alcotest.(check bool)
    (Printf.sprintf "promptly (waited %.0f ms for a 20 ms budget)" waited_ms)
    true (waited_ms < 500.);
  Alcotest.(check (option int)) "the leader's value is stored" (Some 1) (Cache.find c "k")

let test_zero_capacity_disables () =
  let c = Cache.create ~metrics_prefix:"test-zero" ~capacity:0 () in
  Cache.add c "k" 1;
  Alcotest.(check (option int)) "nothing stored" None (Cache.find c "k");
  Alcotest.(check int) "empty" 0 (Cache.length c)

let test_clear () =
  let c = Cache.create ~metrics_prefix:"test-clear" ~capacity:4 () in
  Cache.add c "k" 1;
  ignore (Cache.find c "k");
  Cache.clear c;
  Alcotest.(check int) "no entries" 0 (Cache.length c);
  let s = Cache.stats c in
  Alcotest.(check int) "hits reset" 0 s.Cache.hits;
  (* the post-clear lookup below is the first counted event *)
  Alcotest.(check (option int)) "entry gone" None (Cache.find c "k");
  Alcotest.(check int) "misses restart" 1 (Cache.stats c).Cache.misses

(* ------------------------------------------------------------------ *)
(* Batch ?cache                                                        *)

let test_batch_cache_dedups_sweep () =
  let runs = Atomic.make 0 in
  let f x =
    Atomic.incr runs;
    Ok (x * 10)
  in
  let cache = Cache.create ~metrics_prefix:"test-batch" ~capacity:8 () in
  let entries =
    Batch.run ~jobs:3 ~cache ~label:string_of_int ~f:(Fun.const f) [ 1; 2; 1; 3; 2; 1 ]
  in
  Alcotest.(check int) "six entries" 6 (List.length entries);
  Alcotest.(check int) "three analyses" 3 (Atomic.get runs);
  List.iter2
    (fun x (e : _ Batch.entry) ->
      Alcotest.(check string) "label" (string_of_int x) e.Batch.label;
      match e.Batch.outcome with
      | Ok v -> Alcotest.(check int) "value" (x * 10) v
      | Error msg -> Alcotest.failf "unexpected error: %s" msg)
    [ 1; 2; 1; 3; 2; 1 ] entries;
  (* a second sweep over the same labels is served from the cache *)
  let entries2 = Batch.run ~jobs:3 ~cache ~label:string_of_int ~f:(Fun.const f) [ 3; 1 ] in
  Alcotest.(check int) "still three analyses" 3 (Atomic.get runs);
  Alcotest.(check int) "second sweep complete" 2 (List.length entries2)

let test_batch_cache_remembers_errors () =
  let runs = Atomic.make 0 in
  let f _ =
    Atomic.incr runs;
    Error "always fails"
  in
  let cache = Cache.create ~metrics_prefix:"test-batch-err" ~capacity:8 () in
  let check_failed entries =
    List.iter
      (fun (e : _ Batch.entry) ->
        Alcotest.(check bool) "failed" true (Result.is_error e.Batch.outcome))
      entries
  in
  check_failed (Batch.run ~jobs:2 ~cache ~label:string_of_int ~f:(Fun.const f) [ 1; 1 ]);
  check_failed (Batch.run ~jobs:2 ~cache ~label:string_of_int ~f:(Fun.const f) [ 1 ]);
  Alcotest.(check int) "failure computed once" 1 (Atomic.get runs)

(* ------------------------------------------------------------------ *)
(* Cached analysis agrees with uncached analysis                       *)

let prop_cached_analysis_agrees =
  let cache = Cache.create ~metrics_prefix:"test-prop" ~capacity:64 () in
  Helpers.qcheck_case ~count:60 ~name:"cached and uncached Cycle_time.analyze agree"
    (fun g ->
      let uncached = Cycle_time.analyze g in
      let key = Signal_graph.digest g in
      let cached = Cache.find_or_add cache key (fun () -> Cycle_time.analyze g) in
      let again = Cache.find_or_add cache key (fun () -> Alcotest.fail "recomputed") in
      Helpers.float_close uncached.Cycle_time.cycle_time cached.Cycle_time.cycle_time
      && Helpers.float_close uncached.Cycle_time.cycle_time again.Cycle_time.cycle_time
      && Cycle_time.check_walk g cached)

let suite =
  [
    Alcotest.test_case "digest stable under declaration reordering" `Quick
      test_digest_stable_under_reordering;
    Alcotest.test_case "digest distinguishes content" `Quick test_digest_distinguishes_content;
    Alcotest.test_case "digest exact on adjacent floats" `Quick test_digest_exact_on_close_delays;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "replacing a key does not evict" `Quick test_lru_replace_does_not_evict;
    Alcotest.test_case "hit/miss counters (cache + metrics)" `Quick test_hit_miss_counters;
    Alcotest.test_case "find_or_add computes once" `Quick test_find_or_add_computes_once;
    Alcotest.test_case "find_or_add shares an in-flight computation" `Quick
      test_find_or_add_shares_inflight;
    Alcotest.test_case "find_or_add waits within the waiter's deadline" `Quick
      test_find_or_add_wait_obeys_deadline;
    Alcotest.test_case "zero capacity disables storage" `Quick test_zero_capacity_disables;
    Alcotest.test_case "clear resets entries and counters" `Quick test_clear;
    Alcotest.test_case "Batch ?cache dedups a sweep" `Quick test_batch_cache_dedups_sweep;
    Alcotest.test_case "Batch ?cache remembers errors" `Quick test_batch_cache_remembers_errors;
    prop_cached_analysis_agrees;
  ]
