(* The traced run's in-process half: the same inputs replayed through
   each layer's public functions, every call wrapped in a span, and the
   three-way hop comparison against the live fleet. *)

open Tsg
module Spans = Fleetbench.Spans
module W = Workload

let loaded text =
  match Tsg_io.Loader.of_string text with
  | Ok m -> m.Tsg_io.Loader.graph
  | Error msg -> failwith ("replay: " ^ msg)

type tally = {
  mutable instances : int;
  mutable analyses : int;
  mutable reused : int;
  mutable resimulated : int;
  mutable response_bytes : int;
  mutable responses : int;
  mutable mismatches : string list;
}

let tally () =
  {
    instances = 0;
    analyses = 0;
    reused = 0;
    resimulated = 0;
    response_bytes = 0;
    responses = 0;
    mismatches = [];
  }

let rendered t response =
  t.response_bytes <- t.response_bytes + String.length response;
  t.responses <- t.responses + 1

let expect t ~what want got =
  if not (Fleetbench.Oracle.close want got) then
    t.mismatches <- Printf.sprintf "%s: replay %.17g, oracle %.17g" what got want :: t.mismatches

(* a cold analyze as the replica runs it: parse, digest, miss both cache
   tiers, analyse, render, write behind.  The analysis is replayed
   phase by phase, exactly as Cycle_time.analyze composes it: border,
   unfold (make + warm_caches), one simulation per border event, then
   the remainder (critical-sample selection and backtrack) through
   Cycle_time.Internal.finish, the function analyze itself ends in. *)
let cold spans t ~disk (m : W.model) =
  let cache = Tsg_engine.Cache.create ~capacity:16 () in
  Spans.with_span spans "replay.request" @@ fun root ->
  let span name f = Spans.with_span spans ~parent:root name (fun _ -> f ()) in
  let g = span "loader.parse" (fun () -> loaded m.text) in
  let key = span "signal_graph.digest" (fun () -> Signal_graph.digest g) in
  ignore (span "cache.find" (fun () -> Tsg_engine.Cache.find cache key));
  ignore (span "disk_cache.read" (fun () -> Tsg_engine.Disk_cache.find disk key));
  let border = span "cut_set.border" (fun () -> Cut_set.border g) in
  let periods = List.length border in
  let u = span "unfolding.make" (fun () -> Unfolding.make g ~periods:(periods + 1)) in
  span "unfolding.warm_caches" (fun () -> Unfolding.warm_caches u);
  t.instances <- t.instances + Unfolding.instance_count u;
  t.analyses <- t.analyses + 1;
  let roots =
    Array.of_list (List.map (fun e -> Unfolding.instance u ~event:e ~period:0) border)
  in
  let traces =
    span "timing_sim.simulate_many" (fun () ->
        Timing_sim.simulate_many u ~roots ~f:(fun at view ->
            let g0, _ = Unfolding.event_of_instance u at in
            Cycle_time.Internal.trace_of_times (Timing_sim.view_time view) u periods g0))
  in
  let report =
    span "cycle_time.finish" (fun () ->
        Cycle_time.Internal.finish g u ~border ~periods ~traces:(Array.to_list traces))
  in
  let response =
    span "rpc.render" (fun () -> Tsg_io.Rpc.analyze_response ~model:m.name g report)
  in
  rendered t response;
  span "cache.add" (fun () -> Tsg_engine.Cache.add cache key report);
  span "disk_cache.write" (fun () ->
      Tsg_engine.Disk_cache.add disk key response;
      Tsg_engine.Disk_cache.flush disk);
  expect t ~what:m.name m.cycle_time report.Cycle_time.cycle_time

(* a hot analyze: parse and digest on every request, then either a
   memory hit (re-rendered from the cached report) or a disk hit
   (stored bytes).  Both tiers are primed outside the spans. *)
let hot spans t ~disk (models : W.model array) =
  let cache = Tsg_engine.Cache.create ~capacity:(Array.length models) () in
  Array.iter
    (fun (m : W.model) ->
      let report = Cycle_time.analyze m.graph in
      let key = Signal_graph.digest m.graph in
      Tsg_engine.Cache.add cache key report;
      Tsg_engine.Disk_cache.add disk key (Tsg_io.Rpc.analyze_response ~model:m.name m.graph report))
    models;
  Tsg_engine.Disk_cache.flush disk;
  Array.iter
    (fun (m : W.model) ->
      Spans.with_span spans "replay.request" @@ fun root ->
      let span name f = Spans.with_span spans ~parent:root name (fun _ -> f ()) in
      let g = span "loader.parse" (fun () -> loaded m.text) in
      let key = span "signal_graph.digest" (fun () -> Signal_graph.digest g) in
      match span "cache.find" (fun () -> Tsg_engine.Cache.find cache key) with
      | None -> t.mismatches <- (m.name ^ ": replay cache lost an entry") :: t.mismatches
      | Some report ->
        let response =
          span "rpc.render" (fun () -> Tsg_io.Rpc.analyze_response ~model:m.name g report)
        in
        rendered t response;
        expect t ~what:m.name m.cycle_time report.Cycle_time.cycle_time;
        (match span "disk_cache.read" (fun () -> Tsg_engine.Disk_cache.find disk key) with
        | Some bytes when String.equal bytes response -> ()
        | _ -> t.mismatches <- (m.name ^ ": disk bytes differ from a fresh render") :: t.mismatches))
    models

(* a sweep against a prepared base: parse and digest the base file,
   find the prepared base, repair every scenario, render the reply *)
let sweep spans t (b : W.base) (scenarios : W.scenario array) =
  let prepared = Tsg_engine.Cache.create ~capacity:1 () in
  Tsg_engine.Cache.add prepared b.model.digest b.prepared;
  Spans.with_span spans "replay.request" @@ fun root ->
  let span name f = Spans.with_span spans ~parent:root name (fun _ -> f ()) in
  let g = span "loader.parse" (fun () -> loaded b.model.text) in
  let key = span "signal_graph.digest" (fun () -> Signal_graph.digest g) in
  match span "cache.find" (fun () -> Tsg_engine.Cache.find prepared key) with
  | None -> t.mismatches <- (b.model.name ^ ": prepared base not found") :: t.mismatches
  | Some base ->
    let scratch = Whatif.scratch base in
    let items =
      Array.to_list scenarios
      |> List.map (fun (s : W.scenario) ->
             let name =
               match s.change with
               | Whatif.Delay _ -> "whatif.reanalyze_delay"
               | _ -> "whatif.reanalyze_structural"
             in
             let t0 = Unix.gettimeofday () in
             let report, stats =
               span name (fun () -> Whatif.reanalyze_changes ~scratch base [ s.change ])
             in
             t.reused <- t.reused + stats.Whatif.reused;
             t.resimulated <- t.resimulated + stats.Whatif.resimulated;
             expect t ~what:(b.model.name ^ " " ^ s.wire) s.expected report.Cycle_time.cycle_time;
             let edit =
               match s.change with
               | Whatif.Delay { arc; delta } ->
                 Tsg_engine.Protocol.Sw_delay { sw_arc = arc; sw_delta = delta }
               | Whatif.Add_arc { src; dst; delay; marked } ->
                 Tsg_engine.Protocol.Sw_add
                   {
                     sw_src = Tsg_engine.Protocol.Ev_id src;
                     sw_dst = Tsg_engine.Protocol.Ev_id dst;
                     sw_delay = delay; sw_marked = marked }
               | Whatif.Remove_arc arc -> Tsg_engine.Protocol.Sw_remove arc
               | Whatif.Set_marked { arc; marked } ->
                 Tsg_engine.Protocol.Sw_mark { sw_arc = arc; sw_marked = marked }
             in
             {
               Tsg_io.Rpc.edits = [ edit ];
               elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.;
               outcome = Ok (report, stats);
             })
    in
    let response =
      span "rpc.render" (fun () ->
          Tsg_io.Rpc.sweep_response ~model:b.model.name (Whatif.signal_graph base) items)
    in
    rendered t response

(* the same request lines sent three ways, interleaved with a rotating
   order: straight to the key's home replica, through an in-process
   Router, and through the proxy.  Returns the per-way latencies. *)
let hops spans ~router ~proxy ~check (requests : W.request list) =
  let eps = Array.of_list (Tsg_engine.Router.endpoints router) in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let reply = f () in
    let t1 = Unix.gettimeofday () in
    Spans.add spans name ~start_s:t0 ~stop_s:t1;
    check reply;
    (t1 -. t0) *. 1000.
  in
  let call ep line =
    match Tsg_engine.Server.call ~endpoint:ep [ line ] with
    | [ r ] -> Ok r
    | _ -> Error "no reply"
    | exception (Unix.Unix_error _ | Failure _) -> Error "connection failed"
  in
  List.mapi
    (fun i (r : W.request) ->
      let ways =
        [|
          ("hop.direct", fun () -> call eps.(Tsg_engine.Router.home router r.key) r.line);
          ("hop.router", fun () -> Tsg_engine.Router.route router ~key:r.key r.line);
          ("hop.proxy", fun () -> call proxy r.line);
        |]
      in
      let ms = Array.make 3 0. in
      for k = 0 to 2 do
        let w = (i + k) mod 3 in
        let name, f = ways.(w) in
        ms.(w) <- timed name (fun () -> (r, f ()))
      done;
      (ms.(0), ms.(1), ms.(2)))
    requests
