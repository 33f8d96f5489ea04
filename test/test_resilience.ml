(* Resilience tests: deadlines and cooperative cancellation, input
   validation caps, fault injection through Failpoint, daemon
   hardening (oversized / slow / disconnecting / excess clients), and
   fuzzing of the two parsers that face hostile bytes. *)

open Tsg
open Tsg_engine

let benchmarks_dir = try Sys.getenv "BENCHMARKS" with Not_found -> "../benchmarks"
let bench file = Filename.concat benchmarks_dir file

(* every scenario here drives the Unix transport; TCP behaviour is
   covered by test_server.ml and test_router.ml *)
let call ?retries ?backoff_ms ~socket requests =
  Server.call ?retries ?backoff_ms ~endpoint:(Server.Unix_socket socket) requests

let contains hay needle =
  let n = String.length needle and len = String.length hay in
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i + n <= len do
    if String.sub hay !i n = needle then found := true else incr i
  done;
  !found

(* a model big enough that its analysis cannot beat even a generous
   pre-expired budget, small enough to stay fast when run for real *)
let dense_graph () =
  Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 ()

(* ------------------------------------------------------------------ *)
(* Deadline unit behaviour                                             *)

let test_deadline_none_never_trips () =
  Alcotest.(check bool) "none is not expired" false (Deadline.expired Deadline.none);
  Deadline.check Deadline.none;
  Alcotest.(check (option (float 0.))) "none has no budget" None
    (Deadline.remaining_ms Deadline.none)

let test_deadline_expires_and_counts_once () =
  let d = Deadline.make ~budget_ms:1. () in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "budget elapsed" true (Deadline.expired d);
  let before = Metrics.count "deadline/cancelled" in
  (match Deadline.check d with
  | () -> Alcotest.fail "check did not raise on an expired deadline"
  | exception Deadline.Deadline_exceeded -> ());
  (match Deadline.check d with
  | () -> Alcotest.fail "second check did not raise"
  | exception Deadline.Deadline_exceeded -> ());
  Alcotest.(check int) "the metric counts a deadline once" (before + 1)
    (Metrics.count "deadline/cancelled")

let test_deadline_cancel () =
  let d = Deadline.make () in
  Alcotest.(check bool) "fresh deadline is live" false (Deadline.expired d);
  Deadline.cancel d;
  Alcotest.(check bool) "cancel implies expired" true (Deadline.expired d);
  Alcotest.(check bool) "message says cancelled" true
    (Deadline.error_message d = "deadline_exceeded: analysis cancelled")

let test_ambient_deadline_scoping () =
  let d = Deadline.make ~budget_ms:60_000. () in
  Alcotest.(check bool) "outside: ambient is none" true (Deadline.current () == Deadline.none);
  Deadline.with_deadline d (fun () ->
      Alcotest.(check bool) "inside: ambient is ours" true (Deadline.current () == d));
  Alcotest.(check bool) "restored afterwards" true (Deadline.current () == Deadline.none);
  (* restored even when the body raises *)
  (try
     Deadline.with_deadline d (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after a raise" true
    (Deadline.current () == Deadline.none)

(* the daemon runs every connection handler on a sys-thread of one
   domain: concurrent requests' ambient deadlines must not clobber
   each other (each thread gets its own slot) *)
let test_ambient_deadline_is_per_thread () =
  let barrier = Atomic.make 0 in
  let clobbered = Atomic.make false in
  let worker () =
    let mine = Deadline.make ~budget_ms:60_000. () in
    Deadline.with_deadline mine (fun () ->
        Atomic.incr barrier;
        (* wait until every thread has installed its own deadline *)
        while Atomic.get barrier < 8 do
          Thread.yield ()
        done;
        if not (Deadline.current () == mine) then Atomic.set clobbered true)
  in
  let threads = List.init 8 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Alcotest.(check bool) "each thread saw its own deadline" false
    (Atomic.get clobbered);
  Alcotest.(check bool) "the main thread's slot is untouched" true
    (Deadline.current () == Deadline.none)

let test_expired_deadline_aborts_analysis () =
  let g = dense_graph () in
  let d = Deadline.make ~budget_ms:0. () in
  Unix.sleepf 0.002;
  (match Deadline.with_deadline d (fun () -> Cycle_time.analyze g) with
  | _ -> Alcotest.fail "analysis beat an already-expired deadline"
  | exception Deadline.Deadline_exceeded -> ());
  (* the engine is fully reusable after the unwind *)
  let report = Cycle_time.analyze g in
  Alcotest.(check bool) "subsequent analysis succeeds" true
    (Float.is_finite report.Cycle_time.cycle_time && report.Cycle_time.cycle_time > 0.)

(* the ambient deadline is the only budget channel, so every public
   analysis entry point must honour it on its own — including those
   reached without going through Cycle_time.analyze.  Everything each
   call needs is built first, outside the budget. *)
let test_cancelled_ambient_deadline_stops_every_entry_point () =
  let g = dense_graph () in
  let periods = List.length (Cut_set.border g) in
  let u = Unfolding.make g ~periods:(periods + 1) in
  let at = Unfolding.instance u ~event:(List.hd (Cut_set.border g)) ~period:0 in
  let report = Cycle_time.analyze g in
  let base = Whatif.prepare g in
  let a0 = Signal_graph.arc g 0 in
  (* a parallel copy of arc 0: a structural edit that keeps the graph live *)
  let twin =
    Whatif.Add_arc
      { src = a0.Signal_graph.arc_src; dst = a0.arc_dst; delay = a0.delay; marked = a0.marked }
  in
  let g' = Whatif.edited_graph_changes base [ twin ] in
  let arc_map = Array.init (Signal_graph.arc_count g) Fun.id in
  let net = Tsg_circuit.Circuit_library.fig1_netlist () in
  let cancelled = Deadline.make () in
  Deadline.cancel cancelled;
  let expect name f =
    match Deadline.with_deadline cancelled (fun () -> ignore (f ())) with
    | () -> Alcotest.failf "%s ignored a cancelled ambient deadline" name
    | exception Deadline.Deadline_exceeded -> ()
  in
  expect "Unfolding.make" (fun () -> Unfolding.make g ~periods:(periods + 1));
  expect "Unfolding.patch (structural)" (fun () -> Unfolding.patch u g' ~arc_map);
  expect "Timing_sim.simulate" (fun () -> Timing_sim.simulate u);
  expect "Timing_sim.simulate_initiated" (fun () -> Timing_sim.simulate_initiated u ~at);
  expect "Timing_sim.backtrack" (fun () -> Timing_sim.backtrack u ~at ~instance:at);
  expect "Timing_sim.simulate_many" (fun () ->
      Timing_sim.simulate_many ~jobs:2 u ~roots:[| at |] ~f:(fun _ _ -> ()));
  expect "Cycle_time.analyze" (fun () -> Cycle_time.analyze g);
  expect "Cycle_time.Internal.finish" (fun () ->
      Cycle_time.Internal.finish g u ~border:report.Cycle_time.border ~periods
        ~traces:report.Cycle_time.traces);
  expect "Whatif.prepare" (fun () -> Whatif.prepare g);
  expect "Whatif.reanalyze_changes" (fun () ->
      Whatif.reanalyze_changes base [ Whatif.Delay { arc = 0; delta = 1.5 } ]);
  expect "Traspec.extract fig1" (fun () -> Tsg_extract.Traspec.extract net);
  (* the item runner answers each item with a structured error instead
     of raising, on the caller and on pool workers alike *)
  let expect_entries name outcomes =
    match Deadline.with_deadline cancelled outcomes with
    | exception exn -> Alcotest.failf "%s raised %s" name (Printexc.to_string exn)
    | outcomes ->
      Alcotest.(check int) (name ^ ": every item answered") 2 (List.length outcomes);
      List.iter
        (function
          | Error msg when String.starts_with ~prefix:"deadline_exceeded" msg -> ()
          | Error msg -> Alcotest.failf "%s: unstructured error %s" name msg
          | Ok _ -> Alcotest.failf "%s ignored a cancelled ambient deadline" name)
        outcomes
  in
  List.iter
    (fun jobs ->
      expect_entries (Printf.sprintf "Batch.run ~jobs:%d" jobs) (fun () ->
          Batch.run ~jobs ~label:Fun.id
            ~f:(fun _ _ -> Ok (Cycle_time.analyze g).Cycle_time.cycle_time)
            [ "a"; "b" ]
          |> List.map (fun (e : _ Batch.entry) -> Result.map ignore e.Batch.outcome));
      expect_entries (Printf.sprintf "Whatif.sweep_changes ~jobs:%d" jobs) (fun () ->
          Whatif.sweep_changes ~jobs base
            [| [ Whatif.Delay { arc = 0; delta = 1.5 } ]; [ twin ] |]
          |> Array.to_list
          |> List.map (fun (outcome, _) -> Result.map ignore outcome)))
    [ 1; 2 ];
  (* nothing was poisoned: the same calls succeed without a budget *)
  Alcotest.(check bool) "analysis after the cancelled calls" true
    ((Cycle_time.analyze g).Cycle_time.cycle_time = report.Cycle_time.cycle_time)

(* the front end shares the request budget: the parser checks it every
   8192 lines and the graph freeze every 8192 arcs *)
let gen10k_text () =
  Tsg_io.Stg_format.to_string ~model:"gen-10k"
    (Tsg_circuit.Generators.segmented_live_tsg ~seed:11 ~events:10_000 ~tokens:24
       ~extra_arcs:20_000 ())

let test_expired_deadline_aborts_loading () =
  let text = gen10k_text () in
  let d = Deadline.make ~budget_ms:0. () in
  Unix.sleepf 0.002;
  (match Deadline.with_deadline d (fun () -> Tsg_io.Loader.of_string text) with
  | Ok _ -> Alcotest.fail "loading beat an already-expired deadline"
  | Error msg -> Alcotest.failf "the expired budget became a load error: %s" msg
  | exception Deadline.Deadline_exceeded -> ());
  match Tsg_io.Loader.of_string text with
  | Ok m ->
    Alcotest.(check int) "loads without a budget" 10_000
      (Signal_graph.event_count m.Tsg_io.Loader.graph)
  | Error msg -> Alcotest.failf "gen-10k text: %s" msg

(* calibrate against this machine: a budget of a tenth, or a half, of
   the real cost must abort the analysis within a small slack of the
   budget, wherever in the pipeline the budget runs out.  The real
   cost is the fastest of three runs.  A busy host can still make the
   calibration slow and the budgeted run fast enough to finish inside
   its budget; that attempt proves nothing either way, so it is
   recalibrated and retried (at most three attempts).  An analysis
   that finishes past its budget is a failure at once. *)
let check_expiry_is_prompt name g =
  let calibrate () =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (Cycle_time.analyze g);
           (Unix.gettimeofday () -. t0) *. 1000.))
  in
  let rec attempt fraction tries =
    let full_ms = calibrate () in
    let budget_ms = Float.max 1. (full_ms *. fraction) in
    let d = Deadline.make ~budget_ms () in
    let t0 = Unix.gettimeofday () in
    let outcome =
      try Ok (Deadline.with_deadline d (fun () -> Cycle_time.analyze g))
      with Deadline.Deadline_exceeded -> Error ()
    in
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    match outcome with
    | Ok _ when elapsed_ms >= budget_ms ->
      Alcotest.failf "%s: analysis finished %.1f ms into a %.1f ms budget" name elapsed_ms
        budget_ms
    | Ok _ when tries > 1 -> attempt fraction (tries - 1)
    | Ok _ -> Alcotest.fail (name ^ ": analysis beat a fraction of its own budget")
    | Error () ->
      let slack_ms = Float.max 25. (full_ms /. 4.) in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: cancelled within ~T (budget %.1f ms, full %.1f ms, aborted after %.1f ms)"
           name budget_ms full_ms elapsed_ms)
        true
        (elapsed_ms <= budget_ms +. slack_ms)
  in
  List.iter (fun fraction -> attempt fraction 3) [ 0.1; 0.5 ]

let test_deadline_expiry_is_prompt () =
  (* simulation-dominated *)
  check_expiry_is_prompt "dense" (dense_graph ());
  (* unfold-dominated: many instances, only four border simulations *)
  check_expiry_is_prompt "segmented"
    (Tsg_circuit.Generators.segmented_live_tsg ~seed:11 ~events:20_000 ~tokens:4
       ~extra_arcs:40_000 ())

let test_batch_deadline_is_per_item_and_structured () =
  let g = dense_graph () in
  let analyze_graph _label = Ok (Cycle_time.analyze g).Cycle_time.cycle_time in
  (* a budget too small for a 120-event model: every item times out,
     each with a structured message, and none crashes the sweep *)
  let entries =
    Batch.run ~jobs:2 ~deadline_ms:0.001 ~label:Fun.id ~f:(Fun.const analyze_graph)
      [ "a"; "b"; "c" ]
  in
  Alcotest.(check int) "all items reported" 3 (List.length entries);
  List.iter
    (fun (e : _ Batch.entry) ->
      match e.Batch.outcome with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "structured error (%s)" msg)
          true
          (String.length msg >= 17 && String.sub msg 0 17 = "deadline_exceeded")
      | Ok _ -> Alcotest.fail "item beat a pre-expired budget")
    entries;
  (* the pool workers survived the unwinds: the same sweep without a
     budget completes *)
  let entries = Batch.run ~jobs:2 ~label:Fun.id ~f:(Fun.const analyze_graph) [ "a"; "b" ] in
  List.iter
    (fun (e : _ Batch.entry) ->
      match e.Batch.outcome with
      | Ok lambda -> Alcotest.(check bool) "finite cycle time" true (Float.is_finite lambda)
      | Error msg -> Alcotest.failf "pool unusable after timeouts: %s" msg)
    entries

(* ------------------------------------------------------------------ *)
(* Input validation                                                    *)

let test_validate_delay () =
  let ok d = match Tsg_io.Validate.delay d with Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "zero is a delay" true (ok 0.);
  Alcotest.(check bool) "3.5 is a delay" true (ok 3.5);
  Alcotest.(check bool) "nan rejected" false (ok Float.nan);
  Alcotest.(check bool) "negative rejected" false (ok (-1.));
  Alcotest.(check bool) "+inf rejected" false (ok Float.infinity);
  match Tsg_io.Validate.delay Float.nan with
  | Error msg ->
    Alcotest.(check bool) "message names the rule" true
      (contains msg "finite and non-negative")
  | Ok _ -> Alcotest.fail "nan accepted"

let test_validate_caps () =
  (match Tsg_io.Validate.input_text (String.make (Tsg_io.Validate.max_line_bytes + 1) 'a') with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlong line accepted");
  (match Tsg_io.Validate.input_text "a short\ncouple of lines\n" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ordinary text rejected: %s" msg);
  (match Tsg_io.Validate.counts ~events:(Tsg_io.Validate.max_events + 1) ~arcs:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "event cap not enforced");
  (match Tsg_io.Validate.counts ~events:10 ~arcs:(Tsg_io.Validate.max_arcs + 1) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "arc cap not enforced");
  match Tsg_io.Validate.counts ~events:10 ~arcs:20 with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ordinary counts rejected: %s" msg

let test_loaders_share_delay_wording () =
  let expect_shared_error name = function
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the shared rule (%s)" name msg)
        true
        (contains msg "finite and non-negative")
    | Ok _ -> Alcotest.failf "%s accepted a non-finite delay" name
  in
  expect_shared_error "stg"
    (Result.map ignore
       (Tsg_io.Stg_format.parse ".model m\n.graph\na+ b+ nan token\nb+ a+ 1\n.end\n"));
  expect_shared_error "stg-negative"
    (Result.map ignore
       (Tsg_io.Stg_format.parse ".model m\n.graph\na+ b+ -2 token\nb+ a+ 1\n.end\n"));
  expect_shared_error "net"
    (Result.map ignore
       (Tsg_io.Net_format.parse
          ".netlist n\n.input x init=0\n.node y buf x:inf init=0\n.end\n"));
  expect_shared_error "astg-default-delay"
    (Result.map ignore
       (Tsg_io.Astg_format.parse ~default_delay:Float.nan
          ".model m\n.graph\na+ b+\nb+ a+\n.marking { <a+,b+> }\n.end\n"))

(* ------------------------------------------------------------------ *)
(* Fuzzing: the byte-facing parsers must return, never raise           *)

let valid_request =
  Protocol.request_to_string
    (Protocol.Analyze { path = "m.g"; periods = Some 3; timeout_ms = Some 50. })

let valid_model = ".model m\n.events\na+ initial\n.graph\na+ b+ 2 token\nb+ a+ 3\n.end\n"

(* random mutations of a valid byte string: flips, truncations,
   insertions and duplications — the shapes a broken client or a
   corrupted file actually produce *)
let mutate_gen base =
  QCheck2.Gen.(
    let* n_edits = int_range 1 6 in
    let* seeds = list_size (return (n_edits * 3)) (int_bound 0xFFFFFF) in
    let b = Bytes.of_string base in
    let text = ref (Bytes.to_string b) in
    List.iteri
      (fun i seed ->
        if i mod 3 = 0 then begin
          let s = !text in
          let len = String.length s in
          if len > 0 then
            match seed mod 4 with
            | 0 ->
              (* flip a byte *)
              let b = Bytes.of_string s in
              Bytes.set b (seed / 4 mod len) (Char.chr (seed / 16 mod 256));
              text := Bytes.to_string b
            | 1 -> text := String.sub s 0 (seed / 4 mod (len + 1)) (* truncate *)
            | 2 ->
              (* insert junk *)
              let at = seed / 4 mod (len + 1) in
              text :=
                String.sub s 0 at
                ^ String.make 1 (Char.chr (seed / 16 mod 256))
                ^ String.sub s at (len - at)
            | _ -> text := s ^ s (* duplicate *)
        end)
      seeds;
    return !text)

let fuzz_inputs base =
  QCheck2.Gen.(oneof [ mutate_gen base; string_size ~gen:char (int_range 0 200) ])

let fuzz_case ~name ~base law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~print:String.escaped (fuzz_inputs base) law)

let fuzz_parse_request =
  fuzz_case ~name:"Protocol.parse_request never raises" ~base:valid_request
    (fun line ->
      match Protocol.parse_request line with Ok _ | Error _ -> true)

let fuzz_loader =
  fuzz_case ~name:"Loader.of_string never raises" ~base:valid_model (fun text ->
      match Tsg_io.Loader.of_string text with Ok _ | Error _ -> true)

let fuzz_deep_nesting () =
  (* not random at all, but the same contract: pathological nesting
     must come back as a parse error, not a stack overflow *)
  let deep = String.make 10_000 '[' ^ String.make 10_000 ']' in
  match Protocol.json_of_string deep with
  | Ok _ -> Alcotest.fail "absurd nesting accepted"
  | Error msg -> Alcotest.(check bool) "depth error" true (contains msg "nesting")

(* ------------------------------------------------------------------ *)
(* Request lines: the wire integer range and the round trip            *)

(* a wire integer is integral with |n| <= 2^53; beyond that
   [int_of_float] is unspecified (1e19 used to read as arc 0) *)
let test_wire_integer_range () =
  let sweep edit = Printf.sprintf {|{"op":"sweep","path":"m.g","deltas":[%s]}|} edit in
  let ev_error name =
    Printf.sprintf "field %S must be an event id (integer) or event name (string)" name
  in
  let arc_error = {|each sweep edit must carry an integer "arc"|} in
  List.iter
    (fun (line, expected) ->
      match Protocol.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error msg -> Alcotest.(check string) line expected msg)
    [
      (sweep {|{"arc":1e19,"delta":1.5}|}, arc_error);
      (sweep {|{"op":"remove","arc":-1e19}|}, arc_error);
      (sweep {|{"op":"mark","arc":9007199254740994,"marked":true}|}, arc_error);
      (sweep {|{"op":"add","src":1e19,"dst":0,"delay":1}|}, ev_error "src");
      (sweep {|{"op":"add","src":0,"dst":1e19,"delay":1}|}, ev_error "dst");
      ({|{"op":"analyze","path":"m.g","periods":1e300}|}, {|field "periods" must be an integer|});
      ({|{"op":"batch","paths":[],"jobs":1e300}|}, {|field "jobs" must be an integer|});
      ( {|{"op":"sweep","path":"m.g","deltas":[],"jobs":-1e300}|},
        {|field "jobs" must be an integer|} );
    ];
  let two53 = 1 lsl 53 in
  (match Protocol.parse_request {|{"op":"analyze","path":"m.g","periods":9007199254740992}|} with
  | Ok (Analyze { periods = Some n; _ }) -> Alcotest.(check int) "periods 2^53" two53 n
  | _ -> Alcotest.fail "periods 2^53 rejected");
  match
    Protocol.parse_request
      (sweep {|{"op":"add","src":-9007199254740992,"dst":9007199254740992,"delay":1}|})
  with
  | Ok (Sweep { scenarios = [ [ Sw_add { sw_src = Ev_id s; sw_dst = Ev_id d; _ } ] ]; _ }) ->
    Alcotest.(check (pair int int)) "src and dst 2^53" (-two53, two53) (s, d)
  | _ -> Alcotest.fail "event ids of 2^53 rejected"

let request_gen =
  let open QCheck2.Gen in
  let open Protocol in
  let wire_int = oneof [ int_range (-1000) 100_000; oneofl [ 1 lsl 53; -(1 lsl 53) ] ] in
  let special = oneofl [ 0.; -0.; 0.1; 1234.5678; 1e15; 1e300; 5e-324 ] in
  let finite = oneof [ float_range (-1e6) 1e6; special; map Float.neg special ] in
  let non_negative = map Float.abs finite in
  let positive = oneof [ float_range 1e-3 1e7; oneofl [ 1234.5678; 0.1; 1e300 ] ] in
  let text = string_size ~gen:char (int_range 0 12) in
  let ev = oneof [ map (fun i -> Ev_id i) wire_int; map (fun n -> Ev_name n) text ] in
  let edit =
    oneof
      [
        map2 (fun sw_arc sw_delta -> Sw_delay { sw_arc; sw_delta }) wire_int finite;
        (let* sw_src = ev and* sw_dst = ev and* sw_delay = non_negative and* sw_marked = bool in
         return (Sw_add { sw_src; sw_dst; sw_delay; sw_marked }));
        map (fun a -> Sw_remove a) wire_int;
        map2 (fun sw_arc sw_marked -> Sw_mark { sw_arc; sw_marked }) wire_int bool;
      ]
  in
  let* periods = opt wire_int and* jobs = opt wire_int and* timeout_ms = opt positive in
  oneof
    [
      map (fun path -> Analyze { path; periods; timeout_ms }) text;
      map (fun paths -> Batch { paths; periods; jobs; timeout_ms }) (small_list text);
      map2
        (fun path scenarios -> Sweep { path; scenarios; periods; jobs; timeout_ms })
        text
        (small_list (small_list edit));
      oneofl [ Stats; Shutdown ];
    ]

let law_request_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse_request inverts request_to_string" ~count:500
       ~print:Protocol.request_to_string request_gen (fun r ->
         Protocol.parse_request (Protocol.request_to_string r) = Ok r))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let with_failpoints f =
  Fun.protect ~finally:Tsg_obs.Failpoint.clear f

let test_pool_survives_worker_death () =
  with_failpoints @@ fun () ->
  let pool = Pool.create ~size:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let xs = Array.init 16 Fun.id in
  Tsg_obs.Failpoint.activate ~times:1 "pool/job";
  let hits_before = Metrics.count "failpoint/hits" in
  (match Pool.map ~pool ~jobs:(Pool.size pool + 1) (fun x -> x * x) xs with
  | _ -> Alcotest.fail "the injected job failure was swallowed"
  | exception Tsg_obs.Failpoint.Injected "pool/job" -> ());
  Alcotest.(check bool) "failpoint/hits counted" true
    (Metrics.count "failpoint/hits" > hits_before);
  (* one injected death poisoned nothing: the very next map on the
     same pool computes every item *)
  let squares = Pool.map ~pool ~jobs:(Pool.size pool + 1) (fun x -> x * x) xs in
  Alcotest.(check (array int)) "subsequent map intact"
    (Array.map (fun x -> x * x) xs)
    squares

let test_batch_isolates_injected_loader_failure () =
  with_failpoints @@ fun () ->
  Tsg_obs.Failpoint.activate ~times:1 "loader/load";
  let load path =
    match Tsg_io.Loader.load_file path with
    | Ok m -> Ok m.Tsg_io.Loader.name
    | Error msg -> Error msg
  in
  (* jobs:1 makes the injection land deterministically on the first
     item; the loader converts it to Error, so the sweep continues *)
  let entries =
    Batch.run ~jobs:1 ~label:Fun.id ~f:(Fun.const load) [ bench "fig1.g"; bench "ring5.g" ]
  in
  match entries with
  | [ injected; healthy ] ->
    (match injected.Batch.outcome with
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "the injected fault is named (%s)" msg)
        true (contains msg "Injected")
    | Ok _ -> Alcotest.fail "injected loader failure not reported");
    (match healthy.Batch.outcome with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "sibling item infected: %s" msg)
  | other -> Alcotest.failf "expected two entries, got %d" (List.length other)

let test_cache_failpoint_is_isolated_by_server () =
  (* exercised through the daemon below (test_server_requests_survive_
     injection); here just check arming and clearing is symmetric *)
  with_failpoints @@ fun () ->
  Tsg_obs.Failpoint.activate ~times:2 "cache/lookup";
  Alcotest.(check bool) "armed" true (Tsg_obs.Failpoint.is_active "cache/lookup");
  Tsg_obs.Failpoint.deactivate "cache/lookup";
  Alcotest.(check bool) "disarmed" false (Tsg_obs.Failpoint.is_active "cache/lookup")

(* ------------------------------------------------------------------ *)
(* Daemon hardening                                                    *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "tsa-resil-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let wait_for p =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.002
  done

let with_hardened_server ?max_connections ?max_request_bytes ?read_timeout_s
    ?write_timeout_s ?stop f =
  let socket = fresh_socket () in
  let endpoint = Server.Unix_socket socket in
  let _, handler =
    Helpers.replica ~metrics_prefix:"test-resilience" ~endpoint:(fun () -> endpoint) ()
  in
  let server =
    Thread.create
      (fun () ->
        Server.serve ?max_connections ?max_request_bytes ?read_timeout_s
          ?write_timeout_s ~drain_timeout_s:2. ?stop ~endpoint ~handler ())
      ()
  in
  wait_for (fun () -> Sys.file_exists socket);
  Alcotest.(check bool) "server socket appeared" true (Sys.file_exists socket);
  (* a shutdown request can itself be rejected (e.g. the admission
     test's last data connection still counts against the limit while
     its thread winds down) — keep asking until the daemon goes *)
  let rec stop_daemon attempts =
    if attempts > 0 && Sys.file_exists socket then
      match call ~socket [ {|{"op":"shutdown"}|} ] with
      | [ reply ] when contains reply {|"status":"ok"|} -> ()
      | _ ->
        Unix.sleepf 0.05;
        stop_daemon (attempts - 1)
      | exception (Unix.Unix_error _ | Failure _) ->
        Unix.sleepf 0.05;
        stop_daemon (attempts - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      (match stop with
      | Some s -> Atomic.set s true
      | None -> stop_daemon 100);
      Thread.join server)
    (fun () -> f ~socket)

let parse_response line =
  match Protocol.json_of_string line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let field name j =
  match Protocol.member name j with
  | Some (Protocol.String s) -> s
  | _ -> Alcotest.failf "response without a %S field" name

let expect_ok what reply =
  let j = parse_response reply in
  if field "status" j <> "ok" then Alcotest.failf "%s: %s" what reply

let analyze_req ?timeout_ms path =
  Protocol.request_to_string (Protocol.Analyze { path; periods = None; timeout_ms })

(* a raw client that can misbehave in ways Server.call will not *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_read_line fd =
  let ic = Unix.in_channel_of_descr fd in
  match input_line ic with line -> Some line | exception End_of_file -> None

let test_oversized_request_rejected () =
  with_hardened_server ~max_request_bytes:256 @@ fun ~socket ->
  let rejected_before = Metrics.count "server/rejected" in
  let big = analyze_req (String.make 4096 'x') in
  (match call ~socket [ big ] with
  | [ reply ] ->
    let j = parse_response reply in
    Alcotest.(check string) "status" "error" (field "status" j);
    Alcotest.(check string) "code" "too_large" (field "code" j)
  | other -> Alcotest.failf "expected one reply, got %d" (List.length other)
  | exception Failure _ ->
    (* the connection may be closed before the client finishes writing
       — acceptable, as long as the rejection was counted *)
    ());
  wait_for (fun () -> Metrics.count "server/rejected" > rejected_before);
  Alcotest.(check bool) "rejection counted" true
    (Metrics.count "server/rejected" > rejected_before);
  (* the daemon is unharmed *)
  match call ~socket [ analyze_req (bench "fig1.g") ] with
  | [ reply ] -> expect_ok "still serving" reply
  | _ -> Alcotest.fail "daemon unusable after an oversized request"

let test_slow_loris_times_out () =
  with_hardened_server ~read_timeout_s:0.3 @@ fun ~socket ->
  let timeouts_before = Metrics.count "server/timeouts" in
  let fd = raw_connect socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a few bytes, never the newline *)
  ignore (Unix.write_substring fd "{\"op\":\"ana" 0 10);
  (match raw_read_line fd with
  | Some reply ->
    let j = parse_response reply in
    Alcotest.(check string) "code" "timeout" (field "code" j)
  | None -> Alcotest.fail "connection dropped without the structured goodbye");
  Alcotest.(check bool) "timeout counted" true
    (Metrics.count "server/timeouts" > timeouts_before);
  match call ~socket [ analyze_req (bench "fig1.g") ] with
  | [ reply ] -> expect_ok "still serving" reply
  | _ -> Alcotest.fail "daemon unusable after a slow client"

let test_admission_limit_overloaded () =
  with_hardened_server ~max_connections:1 ~read_timeout_s:10. @@ fun ~socket ->
  let holder = raw_connect socket in
  (* the holder must be *admitted* before the second client arrives *)
  wait_for (fun () -> Metrics.count "server/connections" >= 1);
  let second = raw_connect socket in
  (match raw_read_line second with
  | Some reply ->
    let j = parse_response reply in
    Alcotest.(check string) "status" "error" (field "status" j);
    Alcotest.(check string) "code" "overloaded" (field "code" j)
  | None -> Alcotest.fail "excess client dropped without the structured refusal");
  (try Unix.close second with Unix.Unix_error _ -> ());
  (* freeing the held slot re-opens admission *)
  Unix.close holder;
  let served = ref false in
  let attempts = ref 0 in
  while (not !served) && !attempts < 50 do
    incr attempts;
    match call ~socket [ analyze_req (bench "fig1.g") ] with
    | [ reply ] when field "status" (parse_response reply) = "ok" -> served := true
    | _ | (exception Failure _) | (exception Unix.Unix_error _) -> Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "admission recovered after the holder left" true !served

let test_mid_request_disconnect_is_harmless () =
  with_hardened_server @@ fun ~socket ->
  for _ = 1 to 5 do
    let fd = raw_connect socket in
    ignore (Unix.write_substring fd "{\"op\":\"analy" 0 12);
    Unix.close fd
  done;
  match call ~socket [ analyze_req (bench "fig1.g") ] with
  | [ reply ] -> expect_ok "still serving after 5 rude clients" reply
  | _ -> Alcotest.fail "daemon unusable after disconnecting clients"

let test_accept_survives_emfile () =
  with_failpoints @@ fun () ->
  with_hardened_server @@ fun ~socket ->
  let backoffs_before = Metrics.count "server/accept_backoff" in
  Tsg_obs.Failpoint.activate ~times:2 "server/accept-emfile";
  (* the accept loop eats two injected EMFILEs, backs off, and still
     admits us — the client only sees added latency *)
  (match call ~socket [ analyze_req (bench "fig1.g") ] with
  | [ reply ] -> expect_ok "served" reply
  | _ -> Alcotest.fail "daemon unusable under fd pressure");
  Alcotest.(check bool) "backoff counted" true
    (Metrics.count "server/accept_backoff" >= backoffs_before + 2)

let test_server_requests_survive_injection () =
  with_failpoints @@ fun () ->
  with_hardened_server @@ fun ~socket ->
  Tsg_obs.Failpoint.activate ~times:1 "server/request";
  (match
     call ~socket [ analyze_req (bench "fig1.g"); analyze_req (bench "fig1.g") ]
   with
  | [ injected; healthy ] ->
    let j = parse_response injected in
    Alcotest.(check string) "status" "error" (field "status" j);
    Alcotest.(check string) "code" "internal" (field "code" j);
    expect_ok "the same connection recovers" healthy
  | other -> Alcotest.failf "expected two replies, got %d" (List.length other));
  (* and an injected cache fault surfaces as internal, not a crash *)
  Tsg_obs.Failpoint.activate ~times:1 "cache/lookup";
  match call ~socket [ analyze_req (bench "ring5.g") ] with
  | [ reply ] ->
    let j = parse_response reply in
    Alcotest.(check string) "cache fault is structured" "error" (field "status" j);
    Alcotest.(check string) "cache fault code" "internal" (field "code" j)
  | _ -> Alcotest.fail "daemon died on an injected cache fault"

let test_rpc_timeout_ms () =
  with_hardened_server @@ fun ~socket ->
  let tight = analyze_req ~timeout_ms:0.001 (bench "stack66.g") in
  let unbounded = analyze_req (bench "stack66.g") in
  match call ~socket [ tight; unbounded ] with
  | [ timed_out; served ] ->
    let j = parse_response timed_out in
    Alcotest.(check string) "status" "error" (field "status" j);
    Alcotest.(check string) "code" "deadline_exceeded" (field "code" j);
    (* the timed-out result was not cached: the retry without a budget
       computes the real answer on the same connection *)
    expect_ok "retry without budget succeeds" served
  | other -> Alcotest.failf "expected two replies, got %d" (List.length other)

let test_rpc_timeout_ms_large_model () =
  let path = Filename.temp_file "gen10k" ".g" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc (gen10k_text ()));
  with_hardened_server @@ fun ~socket ->
  match call ~socket [ analyze_req ~timeout_ms:0.001 path; analyze_req (bench "fig1.g") ] with
  | [ timed_out; served ] ->
    let j = parse_response timed_out in
    Alcotest.(check string) "status" "error" (field "status" j);
    Alcotest.(check string) "code" "deadline_exceeded" (field "code" j);
    expect_ok "the connection serves the next request" served
  | other -> Alcotest.failf "expected two replies, got %d" (List.length other)

let test_external_stop_drains () =
  let stop = Atomic.make false in
  with_hardened_server ~stop @@ fun ~socket ->
  (match call ~socket [ analyze_req (bench "fig1.g") ] with
  | [ reply ] -> expect_ok "served" reply
  | _ -> Alcotest.fail "expected one reply");
  (* what the SIGTERM handler does *)
  Atomic.set stop true;
  wait_for (fun () -> not (Sys.file_exists socket));
  Alcotest.(check bool) "socket removed on external stop" false (Sys.file_exists socket)

let test_call_retries_until_daemon_appears () =
  let socket = fresh_socket () in
  let endpoint = Server.Unix_socket socket in
  let _, handler =
    Helpers.replica ~metrics_prefix:"test-resilience-late" ~endpoint:(fun () -> endpoint) ()
  in
  let server =
    Thread.create
      (fun () ->
        (* the daemon shows up late; a retrying client rides it out *)
        Unix.sleepf 0.2;
        Server.serve ~endpoint ~handler ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (call ~retries:5 ~socket [ {|{"op":"shutdown"}|} ])
       with Unix.Unix_error _ | Failure _ -> ());
      Thread.join server)
    (fun () ->
      match
        call ~retries:10 ~backoff_ms:20. ~socket [ analyze_req (bench "fig1.g") ]
      with
      | [ reply ] -> expect_ok "retried through ENOENT/ECONNREFUSED" reply
      | other -> Alcotest.failf "expected one reply, got %d" (List.length other))

(* a peer that accepts connections but never reads is a wedged
   server: the write times out after [timeout_s] and the call fails at
   once, instead of waiting another [timeout_s] for a reply *)
let test_call_fails_fast_on_a_peer_that_never_reads () =
  let socket = fresh_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 4;
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* far larger than any socket buffer, so the write must block *)
  let request = String.make (4 * 1024 * 1024) 'x' in
  match
    Server.call ~timeout_s:0.2 ~endpoint:(Server.Unix_socket socket) [ request ]
  with
  | _ -> Alcotest.fail "a peer that never reads cannot answer"
  | exception Failure msg ->
    Alcotest.(check string) "the write timeout is the failure"
      "Server.call: write timed out" msg

(* a peer that accepts and reads but never answers: the read times out
   after [timeout_s] with a [Failure], like every other call failure *)
let test_call_read_times_out_on_a_silent_peer () =
  let socket = fresh_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 4;
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Server.call ~timeout_s:0.2 ~endpoint:(Server.Unix_socket socket) [ {|{"op":"stats"}|} ] with
  | _ -> Alcotest.fail "a silent peer cannot answer"
  | exception Failure msg ->
    Alcotest.(check string) "the read timeout is the failure" "Server.call: read timed out" msg

let suite =
  [
    Alcotest.test_case "deadline: none never trips" `Quick test_deadline_none_never_trips;
    Alcotest.test_case "deadline: expiry raises and counts once" `Quick
      test_deadline_expires_and_counts_once;
    Alcotest.test_case "deadline: cancel" `Quick test_deadline_cancel;
    Alcotest.test_case "deadline: ambient scoping" `Quick test_ambient_deadline_scoping;
    Alcotest.test_case "deadline: ambient slot is per-thread" `Quick
      test_ambient_deadline_is_per_thread;
    Alcotest.test_case "deadline: aborts analysis, engine reusable" `Quick
      test_expired_deadline_aborts_analysis;
    Alcotest.test_case "deadline: expiry is prompt" `Quick test_deadline_expiry_is_prompt;
    Alcotest.test_case "deadline: every entry point reads the ambient one" `Quick
      test_cancelled_ambient_deadline_stops_every_entry_point;
    Alcotest.test_case "deadline: aborts loading a large model" `Quick
      test_expired_deadline_aborts_loading;
    Alcotest.test_case "deadline: per-item batch budgets" `Quick
      test_batch_deadline_is_per_item_and_structured;
    Alcotest.test_case "validate: delay judgement" `Quick test_validate_delay;
    Alcotest.test_case "validate: size caps" `Quick test_validate_caps;
    Alcotest.test_case "validate: loaders share the wording" `Quick
      test_loaders_share_delay_wording;
    fuzz_parse_request;
    fuzz_loader;
    Alcotest.test_case "fuzz: pathological JSON nesting" `Quick fuzz_deep_nesting;
    Alcotest.test_case "protocol: wire integers stay within 2^53" `Quick
      test_wire_integer_range;
    law_request_round_trip;
    Alcotest.test_case "failpoint: pool survives a worker death" `Quick
      test_pool_survives_worker_death;
    Alcotest.test_case "failpoint: batch isolates a loader fault" `Quick
      test_batch_isolates_injected_loader_failure;
    Alcotest.test_case "failpoint: arming is symmetric" `Quick
      test_cache_failpoint_is_isolated_by_server;
    Alcotest.test_case "server: oversized request rejected" `Quick
      test_oversized_request_rejected;
    Alcotest.test_case "server: slow loris times out" `Quick test_slow_loris_times_out;
    Alcotest.test_case "server: admission limit" `Quick test_admission_limit_overloaded;
    Alcotest.test_case "server: mid-request disconnects" `Quick
      test_mid_request_disconnect_is_harmless;
    Alcotest.test_case "server: accept survives EMFILE" `Quick test_accept_survives_emfile;
    Alcotest.test_case "server: injected faults stay per-request" `Quick
      test_server_requests_survive_injection;
    Alcotest.test_case "server: timeout_ms on the wire" `Quick test_rpc_timeout_ms;
    Alcotest.test_case "server: timeout_ms on a large model" `Quick
      test_rpc_timeout_ms_large_model;
    Alcotest.test_case "server: external stop drains" `Quick test_external_stop_drains;
    Alcotest.test_case "client: call retries with backoff" `Quick
      test_call_retries_until_daemon_appears;
    Alcotest.test_case "client: call fails fast on a peer that never reads" `Quick
      test_call_fails_fast_on_a_peer_that_never_reads;
    Alcotest.test_case "client: call read times out on a silent peer" `Quick
      test_call_read_times_out_on_a_silent_peer;
  ]
