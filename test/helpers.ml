(* Shared fixtures, testables and QCheck generators. *)

open Tsg

let float_close ?(tol = 1e-9) a b =
  abs_float (a -. b) <= tol *. (1. +. Float.max (abs_float a) (abs_float b))

let approx ?tol () = Alcotest.testable Fmt.float (fun a b -> float_close ?tol a b)

let check_float ?tol msg expected actual = Alcotest.check (approx ?tol ()) msg expected actual

let event = Alcotest.testable Event.pp Event.equal

(* a structural fingerprint of a signal graph: events with classes and
   arcs with all attributes, as sorted string lists *)
let graph_fingerprint g =
  let class_name = function
    | Signal_graph.Initial -> "initial"
    | Signal_graph.Non_repetitive -> "nonrep"
    | Signal_graph.Repetitive -> "rep"
  in
  let events =
    Array.to_list
      (Array.mapi
         (fun i ev ->
           Printf.sprintf "%s:%s" (Event.to_string ev) (class_name (Signal_graph.class_of g i)))
         (Signal_graph.events_of g))
  in
  let arcs =
    Array.to_list
      (Array.map
         (fun (a : Signal_graph.arc) ->
           Printf.sprintf "%s->%s:%g%s%s"
             (Event.to_string (Signal_graph.event g a.arc_src))
             (Event.to_string (Signal_graph.event g a.arc_dst))
             a.delay
             (if a.marked then "*" else "")
             (if a.disengageable then "!" else ""))
         (Signal_graph.arcs g))
  in
  (List.sort compare events, List.sort compare arcs)

let same_graph msg expected actual =
  let ee, ea = graph_fingerprint expected and ae, aa = graph_fingerprint actual in
  Alcotest.(check (list string)) (msg ^ " (events)") ee ae;
  Alcotest.(check (list string)) (msg ^ " (arcs)") ea aa

(* instance time lookup by event name *)
let time_of u (sim : Timing_sim.result) name period =
  let g = Unfolding.signal_graph u in
  sim.Timing_sim.time.(Unfolding.instance u
                         ~event:(Signal_graph.id g (Event.of_string_exn name))
                         ~period)

let event_names g ids =
  List.map (fun e -> Event.to_string (Signal_graph.event g e)) ids

(* QCheck generator over random live TSGs; shrinks on (events, extra) *)
let tsg_gen =
  QCheck2.Gen.(
    let* events = int_range 3 10 in
    let* extra = int_range 0 8 in
    let* seed = int_range 0 10_000 in
    let* max_delay = int_range 1 9 in
    return (Tsg_circuit.Generators.random_live_tsg ~seed ~max_delay ~events ~extra_arcs:extra ()))

let tsg_print g = Tsg_io.Stg_format.to_string g

let qcheck_case ?(count = 100) ~name law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print:tsg_print tsg_gen law)

(* a second generator family: structured models (rings, Muller rings
   with random pin delays, handshake rings, fork/joins) — shapes the
   random-chord family never produces *)
let structured_tsg_gen =
  QCheck2.Gen.(
    let muller =
      let* stages = int_range 3 8 in
      let* seed = int_range 0 999 in
      let rng = Random.State.make [| seed; stages |] in
      let memo = Hashtbl.create 32 in
      let delays ~sink ~driver =
        match Hashtbl.find_opt memo (sink, driver) with
        | Some d -> d
        | None ->
          let d = float_of_int (1 + Random.State.int rng 5) in
          Hashtbl.add memo (sink, driver) d;
          d
      in
      return (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages ~delays ())
    in
    let handshake =
      let* cells = int_range 2 8 in
      return (Tsg_circuit.Circuit_library.handshake_ring_tsg ~cells ())
    in
    let fork_join =
      let* branches = list_size (int_range 1 4) (int_range 1 5) in
      let branches = if branches = [] then [ 2 ] else branches in
      return (Tsg_circuit.Generators.fork_join_tsg ~branches ())
    in
    let plain_ring =
      let* events = int_range 2 20 in
      let* tokens = int_range 1 events in
      return (Tsg_circuit.Generators.ring_tsg ~events ~tokens ())
    in
    oneof [ muller; handshake; fork_join; plain_ring ])

let qcheck_structured_case ?(count = 60) ~name law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:tsg_print structured_tsg_gen law)

(* [g] plus an initial event [i] and a non-repetitive event [n] wired
   into it: i -> n and the disengageable n -> x and i -> y (the
   builder rejects a marked disengageable arc: it constrains nothing).
   [front] puts the two before [g]'s events, shifting every
   repetitive id *)
let with_prologue ~front ~x ~y g =
  let b = Signal_graph.builder () in
  let ev_i = Event.rise "pro_i" and ev_n = Event.rise "pro_n" in
  let prologue () =
    Signal_graph.add_event b ev_i Signal_graph.Initial;
    Signal_graph.add_event b ev_n Signal_graph.Non_repetitive
  in
  if front then prologue ();
  for e = 0 to Signal_graph.event_count g - 1 do
    Signal_graph.add_event b (Signal_graph.event g e) (Signal_graph.class_of g e)
  done;
  if not front then prologue ();
  Array.iter
    (fun (a : Signal_graph.arc) ->
      Signal_graph.add_arc b ~marked:a.marked ~disengageable:a.disengageable ~delay:a.delay
        (Signal_graph.event g a.arc_src) (Signal_graph.event g a.arc_dst))
    (Signal_graph.arcs g);
  let rep k = Signal_graph.event g (List.nth (Signal_graph.repetitive_events g) k) in
  let r = Signal_graph.repetitive_count g in
  Signal_graph.add_arc b ~delay:2. ev_i ev_n;
  Signal_graph.add_arc b ~delay:3. ev_n (rep (x mod r));
  Signal_graph.add_arc b ~delay:1. ev_i (rep (y mod r));
  Signal_graph.build_exn b

(* ------------------------------------------------------------------ *)
(* In-process replicas running the real `tsa serve` handler            *)

(* the replica handler over fresh memory and what-if caches, and the
   memory cache (for its stats) *)
let replica ?(metrics_prefix = "test-replica") ?disk_cache ~endpoint () =
  let cache = Tsg_engine.Cache.create ~metrics_prefix ~capacity:32 () in
  let whatif_cache =
    Tsg_engine.Cache.create ~metrics_prefix:(metrics_prefix ^ "-whatif") ~capacity:8 ()
  in
  ( cache,
    Tsg_io.Service.replica_handler ~cache ~disk_cache ~whatif_cache ~max_sweep:4096
      ~jobs:2 ~shard:None ~endpoint )

(* a replica serving TCP on a thread, optionally slowed by [delay_s]
   per request and pinned to [port] (for restart drills); returns the
   thread and the bound endpoint *)
let start_shard ?(delay_s = 0.) ?(port = 0) ?(metrics_prefix = "test-shard") () =
  let bound = ref None in
  let _, serve = replica ~metrics_prefix ~endpoint:(fun () -> Option.get !bound) () in
  let thread =
    Thread.create
      (fun () ->
        Tsg_engine.Server.serve
          ~on_ready:(fun ep -> bound := Some ep)
          ~endpoint:(Tsg_engine.Server.Tcp { host = "127.0.0.1"; port })
          ~handler:(fun line ->
            if delay_s > 0. then Thread.delay delay_s;
            serve line)
          ())
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !bound = None && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  match !bound with
  | None -> Alcotest.fail "shard never became ready"
  | Some ep -> (thread, ep)

let stop_shard (thread, ep) =
  (try ignore (Tsg_engine.Server.call ~endpoint:ep [ {|{"op":"shutdown"}|} ])
   with Unix.Unix_error _ | Failure _ -> ());
  Thread.join thread
