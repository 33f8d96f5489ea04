open Tsg
module Cache = Tsg_engine.Cache
module Deadline = Tsg_engine.Deadline
module Disk_cache = Tsg_engine.Disk_cache
module Protocol = Tsg_engine.Protocol
module Proxy = Tsg_engine.Proxy
module Router = Tsg_engine.Router
module Server = Tsg_engine.Server

let builtin = function
  | "fig1" -> Some (Tsg_circuit.Circuit_library.fig1_tsg ())
  | "ring5" -> Some (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ())
  | "stack" -> Some (Tsg_circuit.Circuit_library.async_stack_tsg ())
  | "gen-dense" ->
    (* synthetic bench workload: big enough that the simulate phase
       dominates and kernel-level wins show above timer noise *)
    Some (Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 ())
  | "muller-128" ->
    (* the paper's worst case: a Muller ring's border holds nearly
       every event (b = 127 here), so its b simulations each scan
       b periods of the whole ring *)
    Some (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:128 ())
  | "gen-10k" ->
    (* scaling workloads: tens/hundreds of thousands of unfolding
       instances but a fixed, small border (the segment-token count),
       so the per-border-event simulations are few, heavy and uneven —
       the shape that exposes parallel-scheduling wins and losses *)
    Some
      (Tsg_circuit.Generators.segmented_live_tsg ~seed:11 ~events:10_000 ~tokens:24
         ~extra_arcs:20_000 ())
  | "gen-100k" ->
    Some
      (Tsg_circuit.Generators.segmented_live_tsg ~seed:13 ~events:100_000 ~tokens:12
         ~extra_arcs:100_000 ())
  | _ -> None

(* dialect sniffing (".marking" outside comments -> astg) lives in
   Loader, shared with batch mode and the tests *)
let load_model path =
  match builtin path with
  | Some g -> Ok (path, g)
  | None -> (
    match Loader.load_file path with
    | Ok m -> Ok (m.Loader.name, m.Loader.graph)
    | Error msg -> Error msg)

(* [--jobs 0] means "use the whole machine", uniformly across analyze,
   batch, serve and the RPC [jobs] field *)
let resolve_jobs j = if j <= 0 then Tsg_engine.Pool.recommended () else j

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)

let key_of_digest ?periods name digest =
  Printf.sprintf "%s|%s|%s" digest name
    (match periods with None -> "b" | Some n -> string_of_int n)

let cache_key ?periods name g = key_of_digest ?periods name (Signal_graph.digest g)

let digest_or_path path =
  match load_model path with Ok (_, g) -> Signal_graph.digest g | Error _ -> path

(* the routing key and, for analyze, the disk-cache key, from one load
   and one digest.  Routing on the digest sends each model to the
   replica whose caches already hold it. *)
let keys (req : Protocol.request) =
  match req with
  | Analyze { path; periods; _ } -> (
    match load_model path with
    | Ok (name, g) ->
      let digest = Signal_graph.digest g in
      (Some digest, Some (key_of_digest ?periods name digest))
    | Error _ -> (Some path, None))
  | Sweep { path; _ } | Batch { paths = [ path ]; _ } -> (Some (digest_or_path path), None)
  | Batch { paths; _ } -> (Some (String.concat "," paths), None)
  | Stats | Shutdown -> (None, None)

let routing_key req = fst (keys req)

(* ------------------------------------------------------------------ *)
(* Analyses and sweeps                                                 *)

type analysis = (string * Signal_graph.t * Cycle_time.report, string) result
type prepared = (string * Whatif.t, string) result

let analyze_model ~cache ?periods path =
  match load_model path with
  | Error msg -> Error msg
  | Ok (name, g) ->
    Cache.find_or_add cache (cache_key ?periods name g) (fun () ->
        match Cycle_time.analyze ?periods g with
        | report -> Ok (name, g, report)
        | exception Cycle_time.Not_analyzable msg -> Error msg)

(* wire edits -> Whatif changes, resolving event names against the
   model.  Resolution failures are per-scenario errors: one bad name
   must not take down the sweep. *)
let changes_of_edits g edits =
  let resolve = function
    | Protocol.Ev_id i -> Ok i
    | Protocol.Ev_name s -> (
      match Event.of_string s with
      | Error msg -> Error (Printf.sprintf "bad event %S: %s" s msg)
      | Ok ev -> (
        match Signal_graph.id_opt g ev with
        | Some id -> Ok id
        | None -> Error (Fmt.str "event %a is not in the graph" Event.pp ev)))
  in
  let ( let* ) = Result.bind in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* c =
        match (e : Protocol.sweep_edit) with
        | Sw_delay { sw_arc; sw_delta } ->
          Ok (Whatif.Delay { arc = sw_arc; delta = sw_delta })
        | Sw_add { sw_src; sw_dst; sw_delay; sw_marked } ->
          let* src = resolve sw_src in
          let* dst = resolve sw_dst in
          Ok (Whatif.Add_arc { src; dst; delay = sw_delay; marked = sw_marked })
        | Sw_remove arc -> Ok (Whatif.Remove_arc arc)
        | Sw_mark { sw_arc; sw_marked } ->
          Ok (Whatif.Set_marked { arc = sw_arc; marked = sw_marked })
      in
      go (c :: acc) rest
  in
  go [] edits

let sweep ?budget_ms ~jobs base scenarios =
  let resolved = Array.map (changes_of_edits (Whatif.signal_graph base)) scenarios in
  let runnable = Array.of_seq (Seq.filter_map Result.to_option (Array.to_seq resolved)) in
  let results = Whatif.sweep_changes ?budget_ms ~jobs base runnable in
  let next = ref 0 in
  Array.init (Array.length scenarios) (fun i ->
      let outcome, elapsed_ms =
        match resolved.(i) with
        | Error msg -> (Error msg, 0.)
        | Ok _ ->
          incr next;
          results.(!next - 1)
      in
      { Rpc.edits = scenarios.(i); elapsed_ms; outcome })

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)

let transport = function Server.Unix_socket _ -> "unix" | Server.Tcp _ -> "tcp"

(* [f ()] under a request's [timeout_ms]; expiry is a structured
   deadline_exceeded response *)
let budgeted timeout_ms f =
  let d =
    match timeout_ms with None -> Deadline.none | Some ms -> Deadline.make ~budget_ms:ms ()
  in
  match Deadline.with_deadline d f with
  | r -> Ok r
  | exception Deadline.Deadline_exceeded ->
    Error (Protocol.error_line ~code:"deadline_exceeded" (Deadline.error_message d))

(* the analyze op's read path through both tiers: memory (triples,
   shared with batch) then disk (rendered response lines).  A disk
   hit is served as stored bytes — the byte-identity guarantee makes
   that sound; a fresh result is written behind to both.  A timed-out
   analysis raises before either [add] and is never cached;
   load/analysis errors stay in memory only (they are cheap to
   re-derive and not content-addressed facts). *)
let analyze_response ~cache ~disk_cache ?periods path =
  match load_model path with
  | Error msg -> Protocol.error_line msg
  | Ok (name, g) -> (
    let key = cache_key ?periods name g in
    match Cache.find cache key with
    | Some (Ok (name, g, report)) -> Rpc.analyze_response ~model:name g report
    | Some (Error msg) -> Protocol.error_line msg
    | None -> (
      match Option.bind disk_cache (fun dc -> Disk_cache.find dc key) with
      | Some response -> response
      | None -> (
        match Cycle_time.analyze ?periods g with
        | report ->
          Cache.add cache key (Ok (name, g, report));
          let response = Rpc.analyze_response ~model:name g report in
          Option.iter (fun dc -> Disk_cache.add dc key response) disk_cache;
          response
        | exception Cycle_time.Not_analyzable msg ->
          Cache.add cache key (Error msg);
          Protocol.error_line msg)))

(* re-analysis never modifies a prepared base, so its entry stays
   valid across sweeps of the same model *)
let prepared_base ~whatif_cache ?periods path =
  match load_model path with
  | Error msg -> Error msg
  | Ok (name, g) ->
    Cache.find_or_add whatif_cache (cache_key ?periods name g) (fun () ->
        match Whatif.prepare ?periods g with
        | base -> Ok (name, base)
        | exception Cycle_time.Not_analyzable msg -> Error msg)

let replica_handler ~cache ~disk_cache ~whatif_cache ~max_sweep ~jobs ~shard ~endpoint
    line =
  let jobs_of = function Some j -> resolve_jobs j | None -> jobs in
  match Protocol.parse_request line with
  | Error msg -> Server.Reply (Protocol.error_line ~code:"bad_request" msg)
  | Ok (Analyze { path; periods; timeout_ms }) ->
    Server.Reply
      (Result.fold ~ok:Fun.id ~error:Fun.id
         (budgeted timeout_ms (fun () -> analyze_response ~cache ~disk_cache ?periods path)))
  | Ok (Batch { paths; periods; jobs = req_jobs; timeout_ms }) ->
    let entries =
      Tsg_engine.Batch.run ~jobs:(jobs_of req_jobs) ?deadline_ms:timeout_ms ~label:Fun.id
        ~f:(Fun.const (analyze_model ~cache ?periods)) paths
    in
    Server.Reply (Rpc.batch_response entries)
  | Ok (Sweep { path; scenarios; periods; jobs = req_jobs; timeout_ms }) ->
    Server.Reply
      (if List.length scenarios > max_sweep then
         Protocol.error_line ~code:"too_large"
           (Printf.sprintf "sweep of %d scenarios exceeds --max-sweep %d"
              (List.length scenarios) max_sweep)
       else
         (* the budget bounds the base preparation too: a prepare that
            times out is never cached, exactly like an analysis *)
         match budgeted timeout_ms (fun () -> prepared_base ~whatif_cache ?periods path) with
         | Error response -> response
         | Ok (Error msg) -> Protocol.error_line msg
         | Ok (Ok (name, base)) ->
           let items =
             sweep ?budget_ms:timeout_ms ~jobs:(jobs_of req_jobs) base (Array.of_list scenarios)
           in
           Rpc.sweep_response ~model:name (Whatif.signal_graph base) (Array.to_list items))
  | Ok Stats ->
    let ep = endpoint () in
    Server.Reply
      (Rpc.stats_response ~cache:(Cache.stats cache)
         ?disk_cache:(Option.map Disk_cache.stats disk_cache)
         ~transport:(transport ep)
         ~shard:(match shard with Some label -> label | None -> Server.endpoint_to_string ep)
         ())
  | Ok Shutdown -> Server.Final (Rpc.shutdown_response ())

let proxy_handler ~proxy ~stale ~endpoint line =
  match Protocol.parse_request line with
  | Error msg -> Server.Reply (Protocol.error_line ~code:"bad_request" msg)
  | Ok Stats ->
    let ep = endpoint () in
    Server.Reply
      (Rpc.stats_response
         ?disk_cache:(Option.map Disk_cache.stats stale)
         ~transport:(transport ep) ~shard:(Server.endpoint_to_string ep)
         ~proxy:(Proxy.stats proxy, Router.stats (Proxy.router proxy))
         ())
  | Ok Shutdown ->
    (* the proxy is the fleet's one address: shutting it down drains
       the shards behind it too (failures ignored — a dead shard is
       already down) *)
    ignore (Router.broadcast (Proxy.router proxy) line);
    Server.Final (Rpc.shutdown_response ())
  | Ok ((Analyze { timeout_ms; _ } | Sweep { timeout_ms; _ } | Batch { timeout_ms; _ }) as req)
    ->
    let key, cache_key = keys req in
    let forward () =
      match Proxy.forward proxy ?key ?cache_key line with
      | Proxy.Fresh response -> response
      | Proxy.Degraded (payload, _age) -> Proxy.mark_degraded payload
      | Proxy.Shed (code, msg) -> Protocol.error_line ~code msg
      | Proxy.Failed msg -> Protocol.error_line ~code:"unavailable" msg
    in
    Server.Reply
      (match timeout_ms with
      | None -> forward ()
      | Some ms -> Deadline.with_deadline (Deadline.make ~budget_ms:ms ()) forward)
