(* tsa — Timing-Simulation Analyzer.

   Command-line front end for the timesim library: cycle-time analysis
   (the DAC'94 algorithm), timing simulation tables, ASCII timing
   diagrams, simple-cycle enumeration, baseline comparison, Graphviz
   export, and built-in demo models. *)

open Cmdliner
open Tsg

let builtin = function
  | "fig1" -> Some (Tsg_circuit.Circuit_library.fig1_tsg ())
  | "ring5" -> Some (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ())
  | "stack" -> Some (Tsg_circuit.Circuit_library.async_stack_tsg ())
  | "gen-dense" ->
    (* synthetic bench workload: big enough that the simulate phase
       dominates and kernel-level wins show above timer noise *)
    Some (Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 ())
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
   Tsg_io.Loader, shared with batch mode and the tests *)
let load_model path =
  match builtin path with
  | Some g -> Ok (path, g)
  | None -> (
    match Tsg_io.Loader.load_file path with
    | Ok m -> Ok (m.Tsg_io.Loader.name, m.Tsg_io.Loader.graph)
    | Error msg -> Error msg)

let graph_of_input path =
  match load_model path with
  | Ok r -> r
  | Error msg ->
    Fmt.epr "tsa: %s@." msg;
    exit 1

let input_arg =
  let doc =
    "Input model: a .g file, or one of the built-ins $(b,fig1) (the paper's \
     C-element oscillator), $(b,ring5) (the 5-stage Muller ring), $(b,stack) \
     (the 66-event stack controller), or the generated bench workloads \
     $(b,gen-dense), $(b,gen-10k), $(b,gen-100k)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let periods_arg =
  let doc = "Number of unfolding periods to simulate (default: the border-set size)." in
  Arg.(value & opt (some int) None & info [ "periods"; "p" ] ~docv:"N" ~doc)

let event_conv =
  let parse s =
    match Event.of_string s with Ok e -> Ok e | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf e -> Event.pp ppf e)

let initiate_arg =
  let doc = "Run an event-initiated simulation from EVENT (e.g. a+, b-/2)." in
  Arg.(value & opt (some event_conv) None & info [ "initiate"; "i" ] ~docv:"EVENT" ~doc)

let resolve_event g ev =
  match Signal_graph.id_opt g ev with
  | Some id -> id
  | None ->
    Fmt.epr "tsa: event %a is not in the graph@." Event.pp ev;
    exit 1

(* ------------------------------------------------------------------ *)

let jobs_arg =
  let doc =
    "Run the per-border-event simulations on N domains; 0 means auto (one per \
     recommended domain)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* [--jobs 0] means "use the whole machine", uniformly across analyze,
   batch, serve and the RPC [jobs] field *)
let resolve_jobs j = if j <= 0 then Tsg_engine.Pool.recommended () else j

let json_arg =
  let doc = "Emit machine-readable JSON instead of the textual report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Record a trace of the whole pipeline (load, unfold, one longest-paths span \
     per border event, backtrack) and write it to $(docv) as Chrome trace-event \
     JSON — open it in chrome://tracing or https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let write_trace = function
  | None -> ()
  | Some path ->
    Tsg_obs.Trace.write_chrome_json ~path (Tsg_obs.Trace.events ());
    Fmt.epr "tsa: trace written to %s@." path

let timeout_arg =
  let doc =
    "Abort the analysis after $(docv) milliseconds with a deadline_exceeded error \
     (exit code 124) instead of running unbounded."
  in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"T" ~doc)

let analyze_cmd =
  let run input periods jobs json trace timeout_ms =
    if trace <> None then Tsg_obs.Trace.enable ();
    let jobs = resolve_jobs jobs in
    let name, g = graph_of_input input in
    let deadline =
      match timeout_ms with
      | None -> Tsg_engine.Deadline.none
      | Some ms -> Tsg_engine.Deadline.make ~budget_ms:ms ()
    in
    match Cycle_time.analyze ~deadline ?periods ~jobs g with
    | report ->
      write_trace trace;
      if json then print_endline (Tsg_io.Json_report.analysis g report)
      else begin
        Fmt.pr "model: %s (%d events, %d arcs)@.@." name (Signal_graph.event_count g)
          (Signal_graph.arc_count g);
        Fmt.pr "%a@." (Tsg_io.Report.pp_report g) report
      end
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
    | exception Tsg_engine.Deadline.Deadline_exceeded ->
      Fmt.epr "tsa: %s@." (Tsg_engine.Deadline.error_message deadline);
      exit 124
  in
  let doc = "Compute the cycle time and a critical cycle (the DAC'94 algorithm)." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ input_arg $ periods_arg $ jobs_arg $ json_arg $ trace_arg
      $ timeout_arg)

(* load + analyze one model; the shared job of batch mode and the
   serve daemon *)
let analyze_model ?periods path =
  match load_model path with
  | Error msg -> Error msg
  | Ok (name, g) -> (
    match Cycle_time.analyze ?periods g with
    | report -> Ok (name, g, report)
    | exception Cycle_time.Not_analyzable msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* What-if sweeps (shared by `tsa sweep`, `tsa client --delta` and the
   serve daemon's sweep op)                                            *)

(* "TOK[,TOK...]" -> one scenario.  Each TOK is one edit:
     ARC:DELTA          add DELTA to an arc's delay
     +SRC>DST:DELAY[*]  insert an arc (trailing '*': initially marked);
                        SRC/DST are event ids or event names
     -ARC               remove an arc
     !ARC:0|1           clear/set an arc's initial marking
   Structural tokens start with '-'/'+'/'!', so on the command line
   they need the '--' positional separator (or --delta=SPEC). *)
let parse_delta_spec spec =
  let open Tsg_engine.Protocol in
  let ev_of s =
    if s = "" then Error "empty event reference"
    else
      match int_of_string_opt s with
      | Some i -> Ok (Ev_id i)
      | None -> Ok (Ev_name s)
  in
  let split_last_colon s =
    match String.rindex_opt s ':' with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  let edit tok =
    let n = String.length tok in
    if n = 0 then Error "empty edit"
    else
      match tok.[0] with
      | '+' -> (
        let body = String.sub tok 1 (n - 1) in
        let body, marked =
          if body <> "" && body.[String.length body - 1] = '*' then
            (String.sub body 0 (String.length body - 1), true)
          else (body, false)
        in
        match String.index_opt body '>' with
        | None -> Error (Printf.sprintf "bad arc addition %S (want +SRC>DST:DELAY)" tok)
        | Some i -> (
          let src = String.sub body 0 i in
          let rest = String.sub body (i + 1) (String.length body - i - 1) in
          match split_last_colon rest with
          | None ->
            Error (Printf.sprintf "bad arc addition %S (want +SRC>DST:DELAY)" tok)
          | Some (dst, delay) -> (
            match (ev_of src, ev_of dst, float_of_string_opt delay) with
            | Ok sw_src, Ok sw_dst, Some d when Float.is_finite d && d >= 0. ->
              Ok (Sw_add { sw_src; sw_dst; sw_delay = d; sw_marked = marked })
            | Error e, _, _ | _, Error e, _ ->
              Error (Printf.sprintf "bad arc addition %S: %s" tok e)
            | _ ->
              Error
                (Printf.sprintf "bad arc addition %S: delay must be finite and >= 0"
                   tok))))
      | '-' -> (
        match int_of_string_opt (String.sub tok 1 (n - 1)) with
        | Some arc -> Ok (Sw_remove arc)
        | None -> Error (Printf.sprintf "bad arc removal %S (want -ARC)" tok))
      | '!' -> (
        match split_last_colon (String.sub tok 1 (n - 1)) with
        | Some (a, m) -> (
          match (int_of_string_opt a, m) with
          | Some arc, "0" -> Ok (Sw_mark { sw_arc = arc; sw_marked = false })
          | Some arc, "1" -> Ok (Sw_mark { sw_arc = arc; sw_marked = true })
          | _ -> Error (Printf.sprintf "bad marking edit %S (want !ARC:0|1)" tok))
        | None -> Error (Printf.sprintf "bad marking edit %S (want !ARC:0|1)" tok))
      | _ -> (
        match split_last_colon tok with
        | Some (a, d) -> (
          match (int_of_string_opt a, float_of_string_opt d) with
          | Some arc, Some delta -> Ok (Sw_delay { sw_arc = arc; sw_delta = delta })
          | _ -> Error (Printf.sprintf "bad delay edit %S (want ARC:DELTA)" tok))
        | None -> Error (Printf.sprintf "bad delay edit %S (want ARC:DELTA)" tok))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> ( match edit tok with Ok e -> go (e :: acc) rest | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' spec)

let sweep_edit_to_spec (e : Tsg_engine.Protocol.sweep_edit) =
  let open Tsg_engine.Protocol in
  let ev = function Ev_id i -> string_of_int i | Ev_name n -> n in
  match e with
  | Sw_delay { sw_arc; sw_delta } -> Printf.sprintf "%d:%+g" sw_arc sw_delta
  | Sw_add { sw_src; sw_dst; sw_delay; sw_marked } ->
    Printf.sprintf "+%s>%s:%g%s" (ev sw_src) (ev sw_dst) sw_delay
      (if sw_marked then "*" else "")
  | Sw_remove arc -> Printf.sprintf "-%d" arc
  | Sw_mark { sw_arc; sw_marked } ->
    Printf.sprintf "!%d:%d" sw_arc (if sw_marked then 1 else 0)

let delta_conv =
  let parse s = match parse_delta_spec s with Ok e -> Ok e | Error msg -> Error (`Msg msg) in
  let print ppf edits =
    Fmt.pf ppf "%s" (String.concat "," (List.map sweep_edit_to_spec edits))
  in
  Arg.conv (parse, print)

(* wire edits -> Whatif changes, resolving event names against the
   model.  Resolution failures are per-scenario errors: one bad name
   must not take down the sweep (the daemon path relies on this). *)
let changes_of_edits g edits =
  let open Tsg_engine.Protocol in
  let resolve = function
    | Ev_id i -> Ok i
    | Ev_name s -> (
      match Event.of_string s with
      | Error msg -> Error (Printf.sprintf "bad event %S: %s" s msg)
      | Ok ev -> (
        match Signal_graph.id_opt g ev with
        | Some id -> Ok id
        | None -> Error (Fmt.str "event %a is not in the graph" Event.pp ev)))
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* c =
        match e with
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

(* one timed warm re-analysis per scenario, self-scheduled on the
   domain pool with one scratch arena per participant; mirrors
   Whatif.sweep but records wall-clock per item for the reports *)
let run_sweep ?deadline ?budget_ms ~jobs base
    (scenarios : Tsg_engine.Protocol.sweep_edit list array) =
  let outer =
    match deadline with Some d -> d | None -> Tsg_engine.Deadline.current ()
  in
  let g = Whatif.signal_graph base in
  Parallel.map_claims ~jobs
    ~with_ctx:(fun k -> k (Whatif.scratch base))
    ~f:(fun sc edits ->
      let d =
        match budget_ms with
        | None -> Tsg_engine.Deadline.none
        | Some ms -> Tsg_engine.Deadline.make ~budget_ms:ms ()
      in
      let t0 = Unix.gettimeofday () in
      let outcome =
        match changes_of_edits g edits with
        | Error _ as e -> e
        | Ok changes -> (
          match
            Tsg_engine.Deadline.check outer;
            Whatif.reanalyze_changes
              ~deadline:(if d == Tsg_engine.Deadline.none then outer else d)
              ~scratch:sc base changes
          with
          | result -> Ok result
          | exception Tsg_engine.Deadline.Deadline_exceeded ->
            Error
              (Tsg_engine.Deadline.error_message
                 (if Tsg_engine.Deadline.expired outer then outer else d))
          | exception Invalid_argument msg -> Error msg
          | exception Cycle_time.Not_analyzable msg ->
            Error (Printf.sprintf "not analyzable: %s" msg))
      in
      {
        Tsg_io.Rpc.edits;
        elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        outcome;
      })
    scenarios

let sweep_cmd =
  let deltas_arg =
    let doc =
      "Scenarios to re-analyze: each $(docv) is one what-if scenario, a \
       comma-separated list of edits applied together.  Edits: ARC:DELTA adds \
       DELTA to an arc's delay; +SRC>DST:DELAY inserts an arc between existing \
       events (ids or names; trailing $(b,*) marks it initially active); -ARC \
       removes an arc; !ARC:0|1 clears/sets an arc's initial marking.  Arc ids as \
       printed by $(b,tsa slack) / the JSON reports.  Tokens starting with \
       $(b,-)/$(b,+)/$(b,!) need the $(b,--) separator before the scenario list."
    in
    Arg.(non_empty & pos_right 0 delta_conv [] & info [] ~docv:"SPEC" ~doc)
  in
  let run input deltas periods jobs json trace timeout_ms =
    if trace <> None then Tsg_obs.Trace.enable ();
    let jobs = resolve_jobs jobs in
    let name, g = graph_of_input input in
    match Whatif.prepare ?periods ~jobs g with
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
    | base ->
      let scenarios = Array.of_list deltas in
      let items = run_sweep ?budget_ms:timeout_ms ~jobs base scenarios in
      write_trace trace;
      if json then
        print_endline (Tsg_io.Rpc.sweep_response ~model:name g (Array.to_list items))
      else begin
        let report = Whatif.base_report base in
        Fmt.pr "model: %s (%d events, %d arcs); base cycle time %a, b = %d@.@." name
          (Signal_graph.event_count g) (Signal_graph.arc_count g)
          Tsg_io.Report.pp_rational report.Cycle_time.cycle_time
          (List.length report.Cycle_time.border);
        Array.iteri
          (fun i (it : Tsg_io.Rpc.sweep_item) ->
            let spec =
              String.concat "," (List.map sweep_edit_to_spec it.Tsg_io.Rpc.edits)
            in
            match it.Tsg_io.Rpc.outcome with
            | Ok (r, stats) ->
              Fmt.pr "#%-3d %-24s %-13s cycle time %a  (reused %d/%d)  [%.2f ms]@." i
                spec
                (match stats.Whatif.path with
                | Whatif.Short_circuit -> "short-circuit"
                | Whatif.Warm -> "warm"
                | Whatif.Cold -> "cold")
                Tsg_io.Report.pp_rational r.Cycle_time.cycle_time stats.Whatif.reused
                (stats.Whatif.reused + stats.Whatif.resimulated)
                it.Tsg_io.Rpc.elapsed_ms
            | Error msg -> Fmt.pr "#%-3d %-24s ERROR: %s@." i spec msg)
          items;
        let ok, failed =
          Array.fold_left
            (fun (ok, failed) (it : Tsg_io.Rpc.sweep_item) ->
              match it.Tsg_io.Rpc.outcome with
              | Ok _ -> (ok + 1, failed)
              | Error _ -> (ok, failed + 1))
            (0, 0) items
        in
        Fmt.pr "@.%d scenario%s: %d ok, %d error%s@." (Array.length items)
          (if Array.length items = 1 then "" else "s")
          ok failed
          (if failed = 1 then "" else "s")
      end
  in
  let doc =
    "Warm-start what-if analysis: re-analyze many delay and structural edit \
     scenarios (arc insertions, removals, marking flips) against one shared base \
     analysis.  The unfolding and every unaffected border simulation are reused — \
     structural edits patch the unfolding in its change cone instead of \
     re-preparing; reports are byte-identical to an independent $(b,tsa analyze) \
     of each edited model."
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run $ input_arg $ deltas_arg $ periods_arg $ jobs_arg $ json_arg
      $ trace_arg $ timeout_arg)

let batch_cmd =
  let files_arg =
    let doc = "Input models (.g files or built-ins), analyzed concurrently." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"MODEL" ~doc)
  in
  let run files periods jobs json timeout_ms =
    let jobs = resolve_jobs jobs in
    (* a path repeated in one sweep is analyzed once *)
    let cache = Tsg_engine.Cache.create ~capacity:(List.length files) () in
    let entries =
      Tsg_engine.Batch.run ~jobs ?deadline_ms:timeout_ms ~cache ~label:Fun.id
        ~f:(analyze_model ?periods) files
    in
    if json then print_endline (Tsg_io.Json_report.batch entries)
    else begin
      let width =
        List.fold_left (fun w f -> max w (String.length f)) 0 files
      in
      List.iter
        (fun (e : _ Tsg_engine.Batch.entry) ->
          match e.Tsg_engine.Batch.outcome with
          | Ok (name, g, report) ->
            Fmt.pr "%-*s  cycle time = %a   (%s: %d events, %d arcs, b = %d)  [%.2f ms]@."
              width e.Tsg_engine.Batch.label Tsg_io.Report.pp_rational
              report.Cycle_time.cycle_time name
              (Signal_graph.event_count g) (Signal_graph.arc_count g)
              (List.length report.Cycle_time.border)
              e.Tsg_engine.Batch.elapsed_ms
          | Error msg ->
            Fmt.pr "%-*s  ERROR: %s@." width e.Tsg_engine.Batch.label msg)
        entries;
      let failed =
        List.length
          (List.filter
             (fun (e : _ Tsg_engine.Batch.entry) ->
               Result.is_error e.Tsg_engine.Batch.outcome)
             entries)
      in
      Fmt.pr "%d model%s analyzed, %d error%s@."
        (List.length entries)
        (if List.length entries = 1 then "" else "s")
        failed
        (if failed = 1 then "" else "s")
    end
  in
  let doc =
    "Analyze many models in one run on the domain pool; a malformed or \
     non-analyzable input yields an error entry without aborting the rest."
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(const run $ files_arg $ periods_arg $ jobs_arg $ json_arg $ timeout_arg)

(* ------------------------------------------------------------------ *)
(* The analysis daemon and its client                                   *)

let socket_arg =
  let doc = "Path of the Unix-domain socket." in
  Arg.(value & opt (some string) None & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Serve over TCP on $(docv) (e.g. 127.0.0.1:7601) instead of a Unix socket; \
     port 0 picks a free port (announced on stderr)."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

(* one listening endpoint per daemon: --tcp or --socket, not both *)
let resolve_serve_endpoint ~socket ~tcp =
  match (socket, tcp) with
  | Some _, Some _ ->
    Fmt.epr "tsa: give --socket or --tcp, not both@.";
    exit 2
  | Some path, None -> Tsg_engine.Server.Unix_socket path
  | None, Some spec -> (
    match Tsg_engine.Server.endpoint_of_string spec with
    | Ok (Tsg_engine.Server.Tcp _ as ep) -> ep
    | Ok (Tsg_engine.Server.Unix_socket _) ->
      Fmt.epr "tsa: --tcp wants HOST:PORT, got %s@." spec;
      exit 2
    | Error msg ->
      Fmt.epr "tsa: bad --tcp endpoint: %s@." msg;
      exit 2)
  | None, None ->
    Fmt.epr "tsa: give --socket PATH or --tcp HOST:PORT@.";
    exit 2

let serve_cmd =
  let cache_size_arg =
    let doc = "Capacity of the content-addressed result cache (0 disables it)." in
    Arg.(value & opt int 1024 & info [ "cache-size" ] ~docv:"N" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Directory of the on-disk second-tier cache (digest-keyed, crash-safe, \
       survives restarts; shared read-through/write-behind under the in-memory \
       cache).  Omitted: no disk tier."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let disk_cache_size_arg =
    let doc = "Maximum entries kept in --cache-dir before LRU eviction." in
    Arg.(value & opt int 4096 & info [ "disk-cache-size" ] ~docv:"N" ~doc)
  in
  let shard_arg =
    let doc =
      "Shard label reported in the stats response (default: the bound endpoint)."
    in
    Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"LABEL" ~doc)
  in
  let trace_dir_arg =
    let doc =
      "Record a trace of every request (server/request spans, cache hit/miss \
       instants, analysis phases) and write it to $(docv)/tsa-serve-<pid>.json \
       when the daemon stops."
    in
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let max_connections_arg =
    let doc = "Refuse clients past this many concurrent connections (structured 'overloaded' reply)." in
    Arg.(value & opt int 64 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let max_sweep_arg =
    let doc = "Reject sweep requests with more than this many scenarios ('too_large' reply)." in
    Arg.(value & opt int 4096 & info [ "max-sweep" ] ~docv:"N" ~doc)
  in
  let max_request_bytes_arg =
    let doc = "Reject request lines longer than this many bytes ('too_large' reply)." in
    Arg.(value & opt int (1 lsl 20) & info [ "max-request-bytes" ] ~docv:"N" ~doc)
  in
  let read_timeout_arg =
    let doc = "Drop a connection idle (or trickling a request) for this many seconds; 0 disables." in
    Arg.(value & opt float 30. & info [ "read-timeout" ] ~docv:"S" ~doc)
  in
  let write_timeout_arg =
    let doc = "Drop a client that does not drain its responses for this many seconds; 0 disables." in
    Arg.(value & opt float 30. & info [ "write-timeout" ] ~docv:"S" ~doc)
  in
  let drain_timeout_arg =
    let doc = "On shutdown, let in-flight requests finish for up to this many seconds." in
    Arg.(value & opt float 5. & info [ "drain-timeout" ] ~docv:"S" ~doc)
  in
  let failpoints_arg =
    let doc =
      "Arm fault-injection points, e.g. 'pool/job=fail*2;cache/lookup=delay:50'. \
       Same grammar as the TSA_FAILPOINTS environment variable; for testing only."
    in
    Arg.(value & opt (some string) None & info [ "failpoints" ] ~docv:"SPEC" ~doc)
  in
  let run socket tcp cache_size cache_dir disk_cache_size shard jobs trace_dir
      max_connections max_sweep max_request_bytes read_timeout write_timeout
      drain_timeout failpoints =
    let endpoint = resolve_serve_endpoint ~socket ~tcp in
    let jobs = resolve_jobs jobs in
    (match failpoints with
    | None -> ()
    | Some spec -> (
      try Tsg_obs.Failpoint.configure spec
      with Invalid_argument msg ->
        Fmt.epr "tsa: bad --failpoints spec: %s@." msg;
        exit 2));
    (match trace_dir with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      Tsg_obs.Trace.enable ());
    let cache = Tsg_engine.Cache.create ~capacity:cache_size () in
    (* the second tier: rendered analyze responses, digest-keyed, on
       disk.  Survives restarts and is safely shared between replicas
       because responses are byte-identical by construction — any
       replica's answer is every replica's answer. *)
    let disk_cache =
      Option.map
        (fun dir -> Tsg_engine.Disk_cache.create ~capacity:disk_cache_size ~dir ())
        cache_dir
    in
    (* the cache key is the graph's content (declaration-order
       independent), the model name and the requested horizon — two
       files with identical content hit the same entry, an edited
       file misses and is re-analyzed *)
    let cache_key ?periods name g =
      Printf.sprintf "%s|%s|%s" (Signal_graph.digest g) name
        (match periods with None -> "b" | Some n -> string_of_int n)
    in
    let analyze_cached ?periods path =
      match load_model path with
      | Error msg -> Error msg
      | Ok (name, g) ->
        Tsg_engine.Cache.find_or_add cache (cache_key ?periods name g) (fun () ->
            match Cycle_time.analyze ?periods g with
            | report -> Ok (name, g, report)
            | exception Cycle_time.Not_analyzable msg -> Error msg)
    in
    (* the analyze op's read path through both tiers: memory (triples,
       shared with batch) then disk (rendered response lines).  A disk
       hit is served as stored bytes — the byte-identity guarantee
       makes that sound; a fresh result is written behind to both.  A
       timed-out analysis raises before either [add] and is never
       cached; load/analysis errors stay in memory only (they are
       cheap to re-derive and not content-addressed facts). *)
    let analyze_response_cached ?periods path =
      match load_model path with
      | Error msg -> Tsg_io.Rpc.error_response msg
      | Ok (name, g) -> (
        let key = cache_key ?periods name g in
        match Tsg_engine.Cache.find cache key with
        | Some (Ok (name, g, report)) ->
          Tsg_io.Rpc.analyze_response ~model:name g report
        | Some (Error msg) -> Tsg_io.Rpc.error_response msg
        | None -> (
          match
            Option.bind disk_cache (fun dc -> Tsg_engine.Disk_cache.find dc key)
          with
          | Some response -> response
          | None -> (
            match Cycle_time.analyze ?periods g with
            | report ->
              Tsg_engine.Cache.add cache key (Ok (name, g, report));
              let response = Tsg_io.Rpc.analyze_response ~model:name g report in
              Option.iter
                (fun dc -> Tsg_engine.Disk_cache.add dc key response)
                disk_cache;
              response
            | exception Cycle_time.Not_analyzable msg ->
              Tsg_engine.Cache.add cache key (Error msg);
              Tsg_io.Rpc.error_response msg)))
    in
    (* prepared what-if bases are ~b retained float arrays each, far
       heavier than a report — a small separate LRU so repeated sweeps
       of the same model warm-start instantly without letting bases
       crowd out the analysis cache *)
    let whatif_cache = Tsg_engine.Cache.create ~metrics_prefix:"whatif-cache" ~capacity:8 () in
    let prepared_base ?periods path =
      match load_model path with
      | Error msg -> Error msg
      | Ok (name, g) ->
        Tsg_engine.Cache.find_or_add whatif_cache (cache_key ?periods name g)
          (fun () ->
            match Whatif.prepare ?periods g with
            | base -> Ok (name, base)
            | exception Cycle_time.Not_analyzable msg -> Error msg)
    in
    (* the endpoint as actually bound — for Tcp {port = 0} the kernel
       picks the port; on_ready stores it before any client is
       accepted, so the stats handler can report this replica's shard
       identity *)
    let bound_endpoint = ref endpoint in
    let handler line =
      match Tsg_engine.Protocol.parse_request line with
      | Error msg ->
        Tsg_engine.Server.Reply (Tsg_io.Rpc.error_response ~code:"bad_request" msg)
      | Ok (Tsg_engine.Protocol.Analyze { path; periods; timeout_ms }) ->
        Tsg_engine.Server.Reply
          ((* the request's budget wraps load + analyze; a timed-out
              analysis is reported structurally and never cached, so a
              retry with a larger budget can still succeed *)
           let d =
             match timeout_ms with
             | None -> Tsg_engine.Deadline.none
             | Some ms -> Tsg_engine.Deadline.make ~budget_ms:ms ()
           in
           match
             Tsg_engine.Deadline.with_deadline d (fun () ->
                 analyze_response_cached ?periods path)
           with
          | response -> response
          | exception Tsg_engine.Deadline.Deadline_exceeded ->
            Tsg_io.Rpc.error_response ~code:"deadline_exceeded"
              (Tsg_engine.Deadline.error_message d))
      | Ok (Tsg_engine.Protocol.Batch { paths; periods; jobs = req_jobs; timeout_ms })
        ->
        let jobs = match req_jobs with Some j -> resolve_jobs j | None -> jobs in
        let entries =
          Tsg_engine.Batch.run ~jobs ?deadline_ms:timeout_ms ~label:Fun.id
            ~f:(analyze_cached ?periods) paths
        in
        Tsg_engine.Server.Reply (Tsg_io.Rpc.batch_response entries)
      | Ok
          (Tsg_engine.Protocol.Sweep
             { path; scenarios; periods; jobs = req_jobs; timeout_ms }) ->
        Tsg_engine.Server.Reply
          (if List.length scenarios > max_sweep then
             Tsg_io.Rpc.error_response ~code:"too_large"
               (Printf.sprintf "sweep of %d scenarios exceeds --max-sweep %d"
                  (List.length scenarios) max_sweep)
           else
             (* the budget bounds the base preparation too: a sweep
                whose prepare times out is reported structurally and
                never cached, exactly like a timed-out analysis *)
             let d =
               match timeout_ms with
               | None -> Tsg_engine.Deadline.none
               | Some ms -> Tsg_engine.Deadline.make ~budget_ms:ms ()
             in
             match
               Tsg_engine.Deadline.with_deadline d (fun () -> prepared_base ?periods path)
             with
             | Error msg -> Tsg_io.Rpc.error_response msg
             | exception Tsg_engine.Deadline.Deadline_exceeded ->
               Tsg_io.Rpc.error_response ~code:"deadline_exceeded"
                 (Tsg_engine.Deadline.error_message d)
             | Ok (name, base) ->
               let jobs = match req_jobs with Some j -> resolve_jobs j | None -> jobs in
               (* structural scenarios never invalidate the prepared
                  base: re-analysis leaves it untouched, so the LRU
                  entry stays live across the whole sweep and across
                  subsequent sweeps of the same model *)
               let scens = Array.of_list scenarios in
               let items = run_sweep ?budget_ms:timeout_ms ~jobs base scens in
               Tsg_io.Rpc.sweep_response ~model:name (Whatif.signal_graph base)
                 (Array.to_list items))
      | Ok Tsg_engine.Protocol.Stats ->
        Tsg_engine.Server.Reply
          (Tsg_io.Rpc.stats_response ~cache:(Tsg_engine.Cache.stats cache)
             ?disk_cache:(Option.map Tsg_engine.Disk_cache.stats disk_cache)
             ~transport:
               (match endpoint with
               | Tsg_engine.Server.Unix_socket _ -> "unix"
               | Tsg_engine.Server.Tcp _ -> "tcp")
             ~shard:
               (match shard with
               | Some label -> label
               | None -> Tsg_engine.Server.endpoint_to_string !bound_endpoint)
             ())
      | Ok Tsg_engine.Protocol.Shutdown ->
        Tsg_engine.Server.Final (Tsg_io.Rpc.shutdown_response ())
    in
    (* SIGTERM/SIGINT request a graceful drain: stop accepting, let
       in-flight requests finish (up to --drain-timeout), then exit *)
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ());
    let on_ready ep =
      bound_endpoint := ep;
      let name = Tsg_engine.Server.endpoint_to_string ep in
      let transport, stop_hint =
        match ep with
        | Tsg_engine.Server.Unix_socket _ ->
          ("unix", Printf.sprintf "--socket %s" name)
        | Tsg_engine.Server.Tcp _ -> ("tcp", Printf.sprintf "--endpoints %s" name)
      in
      Fmt.epr
        "tsa: serving on %s (%s, cache capacity %d%s); stop with 'tsa client %s \
         --shutdown'@."
        name transport cache_size
        (match cache_dir with
        | Some dir -> Printf.sprintf ", disk cache %s" dir
        | None -> "")
        stop_hint
    in
    match
      Tsg_engine.Server.serve ~max_connections ~max_request_bytes
        ~read_timeout_s:read_timeout ~write_timeout_s:write_timeout
        ~drain_timeout_s:drain_timeout ~stop ~on_ready ~endpoint ~handler ()
    with
    | () ->
      Option.iter Tsg_engine.Disk_cache.close disk_cache;
      Fmt.epr "tsa: server stopped@.";
      (match trace_dir with
      | None -> ()
      | Some dir ->
        write_trace
          (Some (Filename.concat dir (Printf.sprintf "tsa-serve-%d.json" (Unix.getpid ())))))
    | exception Unix.Unix_error (err, fn, arg) ->
      Fmt.epr "tsa: cannot serve on %s: %s (%s %s)@."
        (Tsg_engine.Server.endpoint_to_string endpoint)
        (Unix.error_message err) fn arg;
      exit 1
  in
  let doc =
    "Run a long-lived analysis daemon on a Unix-domain socket ($(b,--socket)) or \
     TCP ($(b,--tcp), one replica of a sharded fleet): requests are \
     newline-delimited JSON (op analyze/batch/sweep/stats/shutdown), analyses are \
     served from a content-addressed LRU cache with an optional crash-safe \
     on-disk second tier ($(b,--cache-dir)), batches run fault-isolated on the \
     domain pool and sweeps share a cached warm-start base per model.  Abusive \
     clients are contained (connection/size/sweep limits, read/write timeouts, \
     per-request deadlines); SIGTERM drains gracefully."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ cache_size_arg $ cache_dir_arg
      $ disk_cache_size_arg $ shard_arg $ jobs_arg $ trace_dir_arg
      $ max_connections_arg $ max_sweep_arg $ max_request_bytes_arg
      $ read_timeout_arg $ write_timeout_arg $ drain_timeout_arg $ failpoints_arg)

let client_cmd =
  let files_arg =
    let doc = "Models to analyze through the daemon (one analyze request each)." in
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL" ~doc)
  in
  let batch_flag =
    let doc = "Send all models as a single fault-isolated batch request." in
    Arg.(value & flag & info [ "batch" ] ~doc)
  in
  let stats_flag =
    let doc = "Also request the server's metrics and cache statistics." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let shutdown_flag =
    let doc = "Ask the daemon to stop (sent after any analyses)." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let retries_arg =
    let doc =
      "Retry a refused connection this many times with exponential backoff \
       (for daemons still starting up)."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let delta_args =
    let doc =
      "Send a what-if sweep instead of analyses: each $(docv) (repeatable) is one \
       scenario of comma-separated edits (ARC:DELTA delay nudges, +SRC>DST:DELAY \
       arc insertions, -ARC removals, !ARC:0|1 marking flips), re-analyzed by the \
       daemon against a shared warm-start base of the (single) MODEL."
    in
    Arg.(value & opt_all delta_conv [] & info [ "delta" ] ~docv:"SPEC" ~doc)
  in
  let endpoints_arg =
    let doc =
      "Comma-separated replica endpoints (HOST:PORT and/or socket paths).  \
       Requests are consistent-hash routed on each model's content digest \
       across the fleet, with per-shard circuit breakers and failover; \
       $(b,--stats)/$(b,--shutdown) broadcast to every replica.  A per-shard \
       routing summary is printed on stderr."
    in
    Arg.(value & opt (some string) None & info [ "endpoints" ] ~docv:"EP,EP,..." ~doc)
  in
  let via_arg =
    let doc =
      "Send every request to a $(b,tsa proxy) at this single address \
       (HOST:PORT or socket path) and let it route, retry, hedge and shed: \
       the thin-client path — no endpoint list, no local router."
    in
    Arg.(value & opt (some string) None & info [ "via" ] ~docv:"EP" ~doc)
  in
  let run socket endpoints via files batch stats shutdown deltas periods jobs
      timeout_ms retries =
    let open Tsg_engine.Protocol in
    let sweep_requests =
      if deltas = [] then []
      else
        match files with
        | [ path ] ->
          [
            Sweep
              {
                path;
                scenarios = deltas;
                periods;
                jobs = (if jobs = 1 then None else Some jobs);
                timeout_ms;
              };
          ]
        | _ ->
          Fmt.epr "tsa: --delta needs exactly one MODEL@.";
          exit 2
    in
    let requests =
      (if sweep_requests <> [] then sweep_requests
       else if batch && files <> [] then
         [
           Batch
             {
               paths = files;
               periods;
               jobs = (if jobs = 1 then None else Some jobs);
               timeout_ms;
             };
         ]
       else List.map (fun path -> Analyze { path; periods; timeout_ms }) files)
      @ (if stats then [ Stats ] else [])
      @ if shutdown then [ Shutdown ] else []
    in
    if requests = [] then begin
      Fmt.epr "tsa: nothing to send (give models, --stats or --shutdown)@.";
      exit 2
    end;
    match (socket, endpoints, via) with
    | (Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _) ->
      Fmt.epr "tsa: give exactly one of --socket, --endpoints or --via@.";
      exit 2
    | None, None, None ->
      Fmt.epr "tsa: give --socket PATH, --endpoints EP,EP,... or --via EP@.";
      exit 2
    | Some socket, None, None -> (
      match
        Tsg_engine.Server.call ~retries
          ~endpoint:(Tsg_engine.Server.Unix_socket socket)
          (List.map request_to_string requests)
      with
      | responses -> List.iter print_endline responses
      | exception Unix.Unix_error (err, _, _) ->
        Fmt.epr "tsa: cannot reach %s: %s (is 'tsa serve' running?)@." socket
          (Unix.error_message err);
        exit 1
      | exception Failure msg ->
        Fmt.epr "tsa: %s@." msg;
        exit 1)
    | None, None, Some spec -> (
      (* the thin-client path: one conversation with the proxy, which
         owns routing, retries, hedging and shedding.  Responses —
         including degraded:true stale serves — are printed as
         received. *)
      let endpoint =
        match Tsg_engine.Server.endpoint_of_string (String.trim spec) with
        | Ok ep -> ep
        | Error msg ->
          Fmt.epr "tsa: bad --via endpoint %S: %s@." spec msg;
          exit 2
      in
      match
        Tsg_engine.Server.call ~retries ~endpoint
          (List.map request_to_string requests)
      with
      | responses -> List.iter print_endline responses
      | exception Unix.Unix_error (err, _, _) ->
        Fmt.epr "tsa: cannot reach %s: %s (is 'tsa proxy' running?)@."
          (Tsg_engine.Server.endpoint_to_string endpoint)
          (Unix.error_message err);
        exit 1
      | exception Failure msg ->
        Fmt.epr "tsa: %s@." msg;
        exit 1)
    | None, Some spec, None ->
      let eps =
        String.split_on_char ',' spec
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun s ->
               match Tsg_engine.Server.endpoint_of_string (String.trim s) with
               | Ok ep -> ep
               | Error msg ->
                 Fmt.epr "tsa: bad endpoint %S: %s@." s msg;
                 exit 2)
      in
      if eps = [] then begin
        Fmt.epr "tsa: --endpoints names no endpoints@.";
        exit 2
      end;
      let router = Tsg_engine.Router.create ~retries eps in
      (* the routing key is the model's content digest — the exact key
         the replica caches hash on, so each replica's cache
         concentrates on its slice of the keyspace.  An unloadable
         model routes on its path; the daemon reports the load error
         as the response. *)
      let digest_of path =
        match load_model path with
        | Ok (_, g) -> Signal_graph.digest g
        | Error _ -> path
      in
      let routing_key = function
        | Analyze { path; _ } | Sweep { path; _ } -> Some (digest_of path)
        | Batch { paths; _ } -> (
          match paths with
          | [ p ] -> Some (digest_of p)
          | _ -> Some (String.concat "," paths))
        | Stats | Shutdown -> None (* fleet-wide: broadcast *)
      in
      let failures = ref 0 in
      List.iter
        (fun req ->
          let line = request_to_string req in
          match routing_key req with
          | Some key -> (
            match Tsg_engine.Router.route router ~key line with
            | Ok response -> print_endline response
            | Error e ->
              incr failures;
              print_endline (Tsg_io.Rpc.error_response ~code:"unavailable" e))
          | None ->
            List.iter
              (fun (ep, outcome) ->
                match outcome with
                | Ok response -> print_endline response
                | Error e ->
                  incr failures;
                  print_endline
                    (Tsg_io.Rpc.error_response ~code:"unavailable"
                       (Printf.sprintf "%s: %s"
                          (Tsg_engine.Server.endpoint_to_string ep)
                          e)))
              (Tsg_engine.Router.broadcast router line))
        requests;
      let rs = Tsg_engine.Router.stats router in
      Fmt.epr "tsa: router: %d requests, %d rerouted, %d failovers@."
        rs.Tsg_engine.Router.requests rs.Tsg_engine.Router.rerouted
        rs.Tsg_engine.Router.failovers;
      List.iteri
        (fun i (s : Tsg_engine.Router.shard_stats) ->
          Fmt.epr "tsa: shard %d (%s): served %d, failed %d%s@." i
            s.Tsg_engine.Router.endpoint s.Tsg_engine.Router.served
            s.Tsg_engine.Router.failed
            (if s.Tsg_engine.Router.healthy then "" else ", unhealthy"))
        rs.Tsg_engine.Router.shards;
      if !failures > 0 then exit 1
  in
  let doc =
    "Query a running $(b,tsa serve) daemon ($(b,--socket)), a fleet of replicas \
     ($(b,--endpoints), digest-routed with failover), or a $(b,tsa proxy) \
     ($(b,--via), one address, server-side routing): one JSON response line per \
     request."
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ endpoints_arg $ via_arg $ files_arg $ batch_flag
      $ stats_flag $ shutdown_flag $ delta_args $ periods_arg $ jobs_arg
      $ timeout_arg $ retries_arg)

(* ------------------------------------------------------------------ *)
(* The proxy tier: the whole fleet behind one address                  *)

let parse_endpoint_list spec =
  let eps =
    String.split_on_char ',' spec
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun s ->
           match Tsg_engine.Server.endpoint_of_string (String.trim s) with
           | Ok ep -> ep
           | Error msg ->
             Fmt.epr "tsa: bad endpoint %S: %s@." s msg;
             exit 2)
  in
  if eps = [] then begin
    Fmt.epr "tsa: --endpoints names no endpoints@.";
    exit 2
  end;
  eps

let proxy_cmd =
  let listen_arg =
    let doc =
      "Endpoint the proxy binds: HOST:PORT, or a Unix socket path.  Port 0 \
       (the default) asks the kernel for a free port, announced on stderr."
    in
    Arg.(value & opt string "127.0.0.1:0" & info [ "listen" ] ~docv:"EP" ~doc)
  in
  let endpoints_arg =
    let doc = "Comma-separated replica endpoints the proxy fronts." in
    Arg.(
      required
      & opt (some string) None
      & info [ "endpoints" ] ~docv:"EP,EP,..." ~doc)
  in
  let cache_dir_arg =
    let doc =
      "The fleet's shared on-disk cache directory.  The proxy only ever reads \
       it: when every candidate shard for a request is breaker-open or \
       failing, a cached answer is served stale with a degraded:true marker \
       instead of an error.  Omitted: degraded-mode serving is off."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let retry_budget_arg =
    let doc =
      "Retry-budget deposit ratio: tokens added per primary request; every \
       retry and hedge withdraws one whole token, so retries are bounded to \
       about this fraction of traffic.  An exhausted budget sheds \
       ('overloaded') instead of retrying."
    in
    Arg.(value & opt float 0.1 & info [ "retry-budget" ] ~docv:"RATIO" ~doc)
  in
  let hedge_ms_arg =
    let doc =
      "Hedge idempotent requests after $(docv) milliseconds: 0 disables \
       hedging; omitted, the delay adapts to the observed p95 upstream \
       latency."
    in
    Arg.(value & opt (some float) None & info [ "hedge-ms" ] ~docv:"T" ~doc)
  in
  let queue_depth_arg =
    let doc =
      "Admission queue depth: requests waiting for an upstream slot beyond \
       this high-water mark evict the eldest waiter ('overloaded')."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let max_concurrent_arg =
    let doc = "Requests allowed to talk upstream concurrently." in
    Arg.(value & opt int 32 & info [ "max-concurrent" ] ~docv:"N" ~doc)
  in
  let breaker_window_arg =
    let doc = "Sliding window of per-shard call outcomes the breaker remembers." in
    Arg.(value & opt int 16 & info [ "breaker-window" ] ~docv:"N" ~doc)
  in
  let breaker_failures_arg =
    let doc = "Failures within the window that trip a shard's breaker open." in
    Arg.(value & opt int 5 & info [ "breaker-failures" ] ~docv:"N" ~doc)
  in
  let breaker_cooldown_arg =
    let doc =
      "Milliseconds an open breaker waits before admitting one half-open \
       trial request."
    in
    Arg.(value & opt float 1000. & info [ "breaker-cooldown-ms" ] ~docv:"T" ~doc)
  in
  let upstream_timeout_arg =
    let doc =
      "Seconds one upstream conversation may take before it counts as a \
       failure (a wedged shard trips its breaker instead of absorbing a \
       thread)."
    in
    Arg.(value & opt float 10. & info [ "upstream-timeout" ] ~docv:"S" ~doc)
  in
  let max_connections_arg =
    let doc = "Refuse clients past this many concurrent connections." in
    Arg.(value & opt int 256 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let run listen endpoints cache_dir retry_budget hedge_ms queue_depth
      max_concurrent breaker_window breaker_failures breaker_cooldown_ms
      upstream_timeout max_connections =
    let listen_ep =
      match Tsg_engine.Server.endpoint_of_string listen with
      | Ok ep -> ep
      | Error msg ->
        Fmt.epr "tsa: bad --listen %S: %s@." listen msg;
        exit 2
    in
    let eps = parse_endpoint_list endpoints in
    (* the shared cache is opened for stale reads only — the proxy
       never writes it (replicas own the write-behind) *)
    let stale =
      Option.map (fun dir -> Tsg_engine.Disk_cache.create ~dir ()) cache_dir
    in
    let hedging =
      match hedge_ms with
      | None -> Tsg_engine.Proxy.Auto
      | Some ms when ms <= 0. -> Tsg_engine.Proxy.Off
      | Some ms -> Tsg_engine.Proxy.Fixed_ms ms
    in
    let router, proxy =
      try
        (* retries:0 — the proxy owns the retry policy (budgeted,
           breaker-gated); Server.call-level retries underneath it
           would multiply load invisibly, the exact storm the budget
           exists to kill *)
        let router =
          Tsg_engine.Router.create ~retries:0 ~breaker_window ~breaker_failures
            ~breaker_cooldown_ms eps
        in
        ( router,
          Tsg_engine.Proxy.create ~retry_ratio:retry_budget ~hedging
            ~queue_depth ~max_concurrent ~upstream_timeout_s:upstream_timeout
            ?stale router )
      with Invalid_argument msg ->
        Fmt.epr "tsa: %s@." msg;
        exit 2
    in
    (* the routing key is the model's content digest — the same key the
       client-side router and the replica caches use, so the proxy's
       shard choice agrees with every other participant's.  The cache
       key (degraded path) reproduces the daemon's exact disk-cache key
       for analyze requests; sweeps and batches are never disk-cached *)
    let digest_of path =
      match load_model path with
      | Ok (_, g) -> Signal_graph.digest g
      | Error _ -> path
    in
    let classify req =
      let open Tsg_engine.Protocol in
      match req with
      | Analyze { path; periods; timeout_ms } ->
        let key, cache_key =
          match load_model path with
          | Ok (name, g) ->
            let digest = Signal_graph.digest g in
            ( digest,
              Some
                (Printf.sprintf "%s|%s|%s" digest name
                   (match periods with
                   | None -> "b"
                   | Some n -> string_of_int n)) )
          | Error _ -> (path, None)
        in
        `Forward (key, cache_key, true, timeout_ms)
      | Sweep { path; timeout_ms; _ } ->
        `Forward (digest_of path, None, true, timeout_ms)
      | Batch { paths; timeout_ms; _ } ->
        let key =
          match paths with
          | [ p ] -> digest_of p
          | _ -> String.concat "," paths
        in
        (* batches fan out heavy work on the shard pool: correct to
           replay but wasteful to duplicate, so they are not hedged *)
        `Forward (key, None, false, timeout_ms)
      | Stats -> `Stats
      | Shutdown -> `Shutdown
    in
    let bound_endpoint = ref listen_ep in
    let handler line =
      match Tsg_engine.Protocol.parse_request line with
      | Error msg ->
        Tsg_engine.Server.Reply (Tsg_io.Rpc.error_response ~code:"bad_request" msg)
      | Ok req -> (
        match classify req with
        | `Stats ->
          Tsg_engine.Server.Reply
            (Tsg_io.Rpc.stats_response
               ?disk_cache:(Option.map Tsg_engine.Disk_cache.stats stale)
               ~transport:
                 (match listen_ep with
                 | Tsg_engine.Server.Unix_socket _ -> "unix"
                 | Tsg_engine.Server.Tcp _ -> "tcp")
               ~shard:(Tsg_engine.Server.endpoint_to_string !bound_endpoint)
               ~proxy:(Tsg_engine.Proxy.stats proxy, Tsg_engine.Router.stats router)
               ())
        | `Shutdown ->
          (* the proxy is the fleet's one address: shutting it down
             drains the shards behind it too (failures ignored — a
             dead shard is already down) *)
          ignore (Tsg_engine.Router.broadcast router line);
          Tsg_engine.Server.Final (Tsg_io.Rpc.shutdown_response ())
        | `Forward (key, cache_key, idempotent, timeout_ms) ->
          let deadline_at =
            Option.map
              (fun ms -> Unix.gettimeofday () +. (ms /. 1000.))
              timeout_ms
          in
          Tsg_engine.Server.Reply
            (match
               Tsg_engine.Proxy.forward proxy ~key ?cache_key ?deadline_at
                 ~idempotent line
             with
            | Tsg_engine.Proxy.Fresh response -> response
            | Tsg_engine.Proxy.Degraded (payload, _age) ->
              Tsg_engine.Proxy.mark_degraded payload
            | Tsg_engine.Proxy.Shed (code, msg) ->
              Tsg_io.Rpc.error_response ~code msg
            | Tsg_engine.Proxy.Failed msg ->
              Tsg_io.Rpc.error_response ~code:"unavailable" msg))
    in
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
     with Invalid_argument _ | Sys_error _ -> ());
    let on_ready ep =
      bound_endpoint := ep;
      Fmt.epr "tsa: proxy on %s fronting %d shards%s@."
        (Tsg_engine.Server.endpoint_to_string ep)
        (Tsg_engine.Router.shard_count router)
        (match cache_dir with
        | Some dir -> Printf.sprintf ", degraded mode from %s" dir
        | None -> "")
    in
    match
      Tsg_engine.Server.serve ~max_connections ~stop ~on_ready
        ~endpoint:listen_ep ~handler ()
    with
    | () ->
      Option.iter Tsg_engine.Disk_cache.close stale;
      Fmt.epr "tsa: proxy stopped@."
    | exception Unix.Unix_error (err, fn, arg) ->
      Fmt.epr "tsa: cannot serve on %s: %s (%s %s)@."
        (Tsg_engine.Server.endpoint_to_string listen_ep)
        (Unix.error_message err) fn arg;
      exit 1
  in
  let doc =
    "Front a replica fleet on one address: requests are digest-routed to \
     their home shard through per-shard circuit breakers, retried under a \
     global retry budget (exhaustion sheds instead of retrying), hedged to \
     the next-ranked shard for idempotent analyze/sweep calls, and admitted \
     through a deadline-aware bounded queue.  With $(b,--cache-dir), \
     requests whose shards are all down are answered stale from the shared \
     disk cache with a degraded:true marker.  $(b,stats) answers locally \
     with the proxy block; $(b,shutdown) drains the fleet behind the proxy, \
     then the proxy itself."
  in
  Cmd.v
    (Cmd.info "proxy" ~doc)
    Term.(
      const run $ listen_arg $ endpoints_arg $ cache_dir_arg $ retry_budget_arg
      $ hedge_ms_arg $ queue_depth_arg $ max_concurrent_arg $ breaker_window_arg
      $ breaker_failures_arg $ breaker_cooldown_arg $ upstream_timeout_arg
      $ max_connections_arg)

(* ------------------------------------------------------------------ *)
(* Local replica fleets: spawn/drain N daemon subprocesses (testing,
   CI smoke drills, the fleet_load bench workload)                     *)

(* ask the kernel for a currently free loopback port.  There is a
   window between closing the probe socket and the replica binding it,
   but replicas bind with SO_REUSEADDR immediately after, and the
   fleet retries readiness before announcing — good enough for local
   drills, not a general-purpose allocator. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> assert false

let spawn_replica ?(quiet = false) ?cache_dir ~cache_size ~host ~port () =
  let ep = Printf.sprintf "%s:%d" host port in
  let argv =
    [ "tsa"; "serve"; "--tcp"; ep; "--cache-size"; string_of_int cache_size ]
    @ match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> []
  in
  let stderr_fd =
    if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stderr
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
      Unix.stdout stderr_fd
  in
  if quiet then (try Unix.close stderr_fd with Unix.Unix_error _ -> ());
  (pid, ep)

let spawn_proxy ?(quiet = false) ?cache_dir ~listen ~endpoints () =
  let argv =
    [ "tsa"; "proxy"; "--listen"; listen; "--endpoints"; String.concat "," endpoints ]
    @ match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> []
  in
  let stderr_fd =
    if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stderr
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
      Unix.stdout stderr_fd
  in
  if quiet then (try Unix.close stderr_fd with Unix.Unix_error _ -> ());
  pid

(* block until every replica answers a stats request (or raise after
   the retries run out) *)
let wait_fleet_ready endpoints =
  List.iter
    (fun ep ->
      match Tsg_engine.Server.endpoint_of_string ep with
      | Error msg -> failwith msg
      | Ok endpoint ->
        ignore
          (Tsg_engine.Server.call ~retries:12 ~backoff_ms:25. ~endpoint
             [ {|{"op":"stats"}|} ]))
    endpoints

(* one supervised replica slot: [fm_state] is [`Alive] while the pid
   runs, [`Waiting] while a crashed replica sits out its restart
   backoff, [`Gone] once it exited for good *)
type fleet_member = {
  fm_i : int;
  fm_host : string;
  fm_port : int;
  fm_ep : string;
  mutable fm_pid : int;
  mutable fm_started : float;
  mutable fm_crashes : int;  (** consecutive abnormal exits *)
  mutable fm_until : float;  (** restart not before this instant *)
  mutable fm_state : [ `Alive | `Waiting | `Gone ];
}

let fleet_cmd =
  let replicas_arg =
    let doc = "Number of daemon replicas to spawn." in
    Arg.(value & opt int 3 & info [ "replicas"; "n" ] ~docv:"N" ~doc)
  in
  let host_arg =
    let doc = "Host the replicas bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let base_port_arg =
    let doc =
      "First port; replica $(i,i) listens on $(docv)+$(i,i).  0 (default) asks \
       the kernel for free ports."
    in
    Arg.(value & opt int 0 & info [ "base-port" ] ~docv:"PORT" ~doc)
  in
  let cache_size_arg =
    let doc = "Per-replica in-memory cache capacity." in
    Arg.(value & opt int 1024 & info [ "cache-size" ] ~docv:"N" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Shared on-disk second-tier cache directory passed to every replica."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let restart_flag =
    let doc =
      "Respawn a replica that exits abnormally (a crash or a kill signal) on \
       its original port, with capped exponential backoff (0.5 s doubling to \
       10 s, reset after 30 s of uptime).  Clean exits — a broadcast \
       shutdown, a graceful drain — are never restarted."
    in
    Arg.(value & flag & info [ "restart" ] ~doc)
  in
  let proxy_flag =
    let doc =
      "Also spawn a $(b,tsa proxy) fronting the fleet on a free port \
       (announced as 'fleet: proxy EP'), sharing $(b,--cache-dir) for \
       degraded-mode serving."
    in
    Arg.(value & flag & info [ "proxy" ] ~doc)
  in
  let run replicas host base_port cache_size cache_dir restart with_proxy =
    if replicas < 1 then begin
      Fmt.epr "tsa: --replicas must be at least 1@.";
      exit 2
    end;
    let members =
      List.init replicas (fun i ->
          let port = if base_port = 0 then free_port () else base_port + i in
          let pid, ep = spawn_replica ?cache_dir ~cache_size ~host ~port () in
          {
            fm_i = i;
            fm_host = host;
            fm_port = port;
            fm_ep = ep;
            fm_pid = pid;
            fm_started = Unix.gettimeofday ();
            fm_crashes = 0;
            fm_until = 0.;
            fm_state = `Alive;
          })
    in
    let endpoints = List.map (fun m -> m.fm_ep) members in
    (* announce the fleet in a machine-parsable shape: scripts capture
       the endpoints line for --endpoints, the proxy line for --via,
       and the pid lines for kill drills *)
    List.iter
      (fun m -> Fmt.pr "replica %d: pid %d %s@." m.fm_i m.fm_pid m.fm_ep)
      members;
    Fmt.pr "fleet: endpoints %s@." (String.concat "," endpoints);
    let kill_all signal =
      List.iter
        (fun m ->
          if m.fm_state = `Alive then
            try Unix.kill m.fm_pid signal with Unix.Unix_error _ -> ())
        members
    in
    (match wait_fleet_ready endpoints with
    | () -> ()
    | exception _ ->
      Fmt.epr "tsa: fleet failed to come up; terminating@.";
      kill_all Sys.sigterm;
      exit 1);
    let proxy_pid =
      if not with_proxy then None
      else begin
        let listen = Printf.sprintf "%s:%d" host (free_port ()) in
        let pid = spawn_proxy ?cache_dir ~listen ~endpoints () in
        match wait_fleet_ready [ listen ] with
        | () ->
          Fmt.pr "fleet: proxy %s@." listen;
          Some pid
        | exception _ ->
          Fmt.epr "tsa: proxy failed to come up; terminating@.";
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          kill_all Sys.sigterm;
          exit 1
      end
    in
    Fmt.pr "fleet: ready@.";
    (* from here the fleet runs until its replicas exit (a client
       broadcast shutdown, a kill drill) or we are asked to drain:
       SIGTERM/SIGINT is forwarded to every live replica, each of
       which drains gracefully on its own.  With --restart an
       abnormal exit respawns the replica on its port after a capped
       exponential backoff; draining cancels pending restarts. *)
    let drain = ref false in
    let forward _ = drain := true in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle forward)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle forward)
     with Invalid_argument _ | Sys_error _ -> ());
    let draining = ref false in
    let live () = List.exists (fun m -> m.fm_state <> `Gone) members in
    while live () do
      if !drain then begin
        drain := false;
        draining := true;
        kill_all Sys.sigterm;
        Option.iter
          (fun pid ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          proxy_pid
      end;
      List.iter
        (fun m ->
          match m.fm_state with
          | `Gone -> ()
          | `Waiting ->
            if !draining then m.fm_state <- `Gone
            else if Unix.gettimeofday () >= m.fm_until then begin
              let pid, _ =
                spawn_replica ?cache_dir ~cache_size ~host:m.fm_host
                  ~port:m.fm_port ()
              in
              m.fm_pid <- pid;
              m.fm_started <- Unix.gettimeofday ();
              m.fm_state <- `Alive;
              Fmt.pr "replica %d: restarted pid %d@." m.fm_i pid
            end
          | `Alive -> (
            match Unix.waitpid [ Unix.WNOHANG ] m.fm_pid with
            | 0, _ -> ()
            | _, status ->
              Fmt.pr "fleet: replica %d (%s) exited (%s)@." m.fm_i m.fm_ep
                (match status with
                | Unix.WEXITED c -> Printf.sprintf "status %d" c
                | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s);
              let abnormal =
                match status with Unix.WEXITED 0 -> false | _ -> true
              in
              if restart && abnormal && not !draining then begin
                let now = Unix.gettimeofday () in
                (* a replica that ran long enough has proven the port
                   and config good — don't let ancient crashes inflate
                   the next backoff *)
                if now -. m.fm_started > 30. then m.fm_crashes <- 0;
                let backoff =
                  Float.min 10. (0.5 *. (2. ** float_of_int m.fm_crashes))
                in
                m.fm_crashes <- m.fm_crashes + 1;
                m.fm_until <- now +. backoff;
                m.fm_state <- `Waiting
              end
              else m.fm_state <- `Gone
            | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              m.fm_state <- `Gone
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        members;
      if live () then Unix.sleepf 0.1
    done;
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      proxy_pid;
    Fmt.pr "fleet: stopped@."
  in
  let doc =
    "Spawn N local $(b,tsa serve --tcp) replicas on free ports, announce their \
     endpoints and pids, and babysit them until they exit; SIGTERM/SIGINT drains \
     the whole fleet gracefully.  $(b,--restart) respawns crashed replicas with \
     capped exponential backoff; $(b,--proxy) fronts the fleet with a \
     $(b,tsa proxy) on a free port.  For testing, CI smoke drills and load \
     generation — production replicas are expected to run under a real \
     supervisor."
  in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(
      const run $ replicas_arg $ host_arg $ base_port_arg $ cache_size_arg
      $ cache_dir_arg $ restart_flag $ proxy_flag)

(* ------------------------------------------------------------------ *)
(* The regression-bench harness                                        *)

(* one timed analysis: wall-clock totals plus the per-phase wall times
   read back from the Metrics registry (reset before every iteration,
   so iterations don't bleed into each other) *)
type bench_iter = {
  bi_load : float;
  bi_total : float;
  bi_unfold : float;
  bi_simulate : float;
  bi_backtrack : float;
}

(* the serving-tier drill: push one fixed mixed analyze/sweep request
   set through a 1-replica and then a 3-replica TCP fleet (spawned as
   subprocesses, stderr silenced), 4 client threads each, and compare
   throughput.  The request set is deterministic so snapshots stay
   comparable; byte-identity of the analyze responses across fleet
   sizes is checked on every run (sweep responses embed per-item wall
   clock, so they are excluded from the byte comparison, not from the
   load). *)
type fleet_load = {
  fl_requests : int;
  fl_threads : int;
  fl_replicas : int;
  fl_single_ms : float;
  fl_fleet_ms : float;
  fl_failed : int;
  fl_identical : bool;
}

let run_fleet_load () =
  let open Tsg_engine.Protocol in
  let host = "127.0.0.1" in
  let models = [| "fig1"; "ring5"; "stack" |] in
  let n_requests = 48 in
  let client_threads = 4 in
  let replicas = 3 in
  let request_of i m =
    if i land 1 = 0 then Analyze { path = m; periods = None; timeout_ms = None }
    else
      Sweep
        {
          path = m;
          scenarios =
            [
              [
                Sw_delay
                  {
                    sw_arc = i mod 3;
                    sw_delta = 0.25 +. (float_of_int (i mod 5) /. 8.);
                  };
              ];
            ];
          periods = None;
          jobs = None;
          timeout_ms = None;
        }
  in
  let lines =
    Array.init n_requests (fun i ->
        let m = models.(i mod Array.length models) in
        let key =
          match load_model m with
          | Ok (_, g) -> Signal_graph.digest g
          | Error _ -> m
        in
        (key, request_to_string (request_of i m), i land 1 = 0))
  in
  let with_fleet n f =
    let members =
      List.init n (fun _ ->
          let port = free_port () in
          spawn_replica ~quiet:true ~cache_size:1024 ~host ~port ())
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (pid, _) ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          members;
        List.iter
          (fun (pid, _) ->
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          members)
    @@ fun () ->
    let endpoints = List.map snd members in
    wait_fleet_ready endpoints;
    let eps =
      List.map
        (fun ep ->
          match Tsg_engine.Server.endpoint_of_string ep with
          | Ok e -> e
          | Error msg -> failwith msg)
        endpoints
    in
    let router = Tsg_engine.Router.create ~retries:3 eps in
    let result = f router in
    ignore (Tsg_engine.Router.broadcast router {|{"op":"shutdown"}|});
    result
  in
  let drive router =
    let idx = Atomic.make 0 in
    let failed = Atomic.make 0 in
    let responses = Array.make n_requests "" in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add idx 1 in
        if i < n_requests then begin
          let key, line, _ = lines.(i) in
          (match Tsg_engine.Router.route router ~key line with
          | Ok r -> responses.(i) <- r
          | Error _ -> Atomic.incr failed);
          loop ()
        end
      in
      loop ()
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init client_threads (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    ((Unix.gettimeofday () -. t0) *. 1000., responses, Atomic.get failed)
  in
  let single_ms, single_responses, single_failed = with_fleet 1 drive in
  let fleet_ms, fleet_responses, fleet_failed = with_fleet replicas drive in
  let identical = ref true in
  Array.iteri
    (fun i (_, _, is_analyze) ->
      if is_analyze && single_responses.(i) <> fleet_responses.(i) then
        identical := false)
    lines;
  {
    fl_requests = n_requests;
    fl_threads = client_threads;
    fl_replicas = replicas;
    fl_single_ms = single_ms;
    fl_fleet_ms = fleet_ms;
    fl_failed = single_failed + fleet_failed;
    fl_identical = !identical;
  }

(* the proxy-overhead drill: the same deterministic mixed request set
   as fleet_load, once through a client-side router over a 3-replica
   fleet and once through a [tsa proxy] subprocess fronting an
   identical fresh fleet.  Both passes start cold, so the walls are
   comparable; the headline is the overhead of the extra loopback hop
   plus the proxy's admission/breaker/budget bookkeeping, gated at
   15% in CI. *)
type proxy_load = {
  pl_requests : int;
  pl_threads : int;
  pl_replicas : int;
  pl_direct_ms : float;
  pl_proxy_ms : float;
  pl_failed : int;
  pl_identical : bool;
}

let run_proxy_load () =
  let open Tsg_engine.Protocol in
  let host = "127.0.0.1" in
  let models = [| "fig1"; "ring5"; "stack" |] in
  let n_requests = 48 in
  let client_threads = 4 in
  let replicas = 3 in
  let request_of i m =
    if i land 1 = 0 then Analyze { path = m; periods = None; timeout_ms = None }
    else
      Sweep
        {
          path = m;
          scenarios =
            [
              [
                Sw_delay
                  {
                    sw_arc = i mod 3;
                    sw_delta = 0.25 +. (float_of_int (i mod 5) /. 8.);
                  };
              ];
            ];
          periods = None;
          jobs = None;
          timeout_ms = None;
        }
  in
  let lines =
    Array.init n_requests (fun i ->
        let m = models.(i mod Array.length models) in
        let key =
          match load_model m with
          | Ok (_, g) -> Signal_graph.digest g
          | Error _ -> m
        in
        (key, request_to_string (request_of i m), i land 1 = 0))
  in
  let with_fleet f =
    let members =
      List.init replicas (fun _ ->
          let port = free_port () in
          spawn_replica ~quiet:true ~cache_size:1024 ~host ~port ())
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (pid, _) ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          members;
        List.iter
          (fun (pid, _) ->
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          members)
    @@ fun () ->
    let endpoints = List.map snd members in
    wait_fleet_ready endpoints;
    f endpoints
  in
  let drive send =
    let idx = Atomic.make 0 in
    let failed = Atomic.make 0 in
    let responses = Array.make n_requests "" in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add idx 1 in
        if i < n_requests then begin
          let key, line, _ = lines.(i) in
          (match send key line with
          | Ok r -> responses.(i) <- r
          | Error _ -> Atomic.incr failed);
          loop ()
        end
      in
      loop ()
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init client_threads (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    ((Unix.gettimeofday () -. t0) *. 1000., responses, Atomic.get failed)
  in
  let parse_ep ep =
    match Tsg_engine.Server.endpoint_of_string ep with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  let direct_ms, direct_responses, direct_failed =
    with_fleet (fun endpoints ->
        let router = Tsg_engine.Router.create ~retries:3 (List.map parse_ep endpoints) in
        let r = drive (fun key line -> Tsg_engine.Router.route router ~key line) in
        ignore (Tsg_engine.Router.broadcast router {|{"op":"shutdown"}|});
        r)
  in
  let proxy_ms, proxy_responses, proxy_failed =
    with_fleet (fun endpoints ->
        let listen = Printf.sprintf "%s:%d" host (free_port ()) in
        let pid = spawn_proxy ~quiet:true ~listen ~endpoints () in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        @@ fun () ->
        wait_fleet_ready [ listen ];
        let endpoint = parse_ep listen in
        let r =
          drive (fun _key line ->
              match Tsg_engine.Server.call ~retries:3 ~endpoint [ line ] with
              | [ response ] -> Ok response
              | _ -> Error "response count mismatch"
              | exception Unix.Unix_error (e, _, _) ->
                Error (Unix.error_message e)
              | exception Failure msg -> Error msg)
        in
        (* a shutdown through the proxy drains the shards behind it,
           then the proxy itself — the single-address teardown *)
        (match Tsg_engine.Server.call ~endpoint [ {|{"op":"shutdown"}|} ] with
        | _ -> ()
        | exception Unix.Unix_error _ | exception Failure _ -> ());
        r)
  in
  let identical = ref true in
  Array.iteri
    (fun i (_, _, is_analyze) ->
      if is_analyze && direct_responses.(i) <> proxy_responses.(i) then
        identical := false)
    lines;
  {
    pl_requests = n_requests;
    pl_threads = client_threads;
    pl_replicas = replicas;
    pl_direct_ms = direct_ms;
    pl_proxy_ms = proxy_ms;
    pl_failed = direct_failed + proxy_failed;
    pl_identical = !identical;
  }

(* the bench case that reads gen-10k from a file rather than
   generating it *)
let gen10k_file = "gen-10k-file"

let bench_cmd =
  let files_arg =
    let doc =
      "Models to benchmark (default: benchmarks/*.g, sorted, then the built-ins \
       $(b,gen-dense) and $(b,gen-10k), and $(b,gen-10k-file): gen-10k exported to \
       a temporary .g and read back, so that its load phase measures parsing)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL" ~doc)
  in
  let iterations_arg =
    let doc = "Analyses per model; the snapshot records mean and best times." in
    Arg.(value & opt int 5 & info [ "iterations"; "n" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Snapshot path (default: BENCH_<yyyy-mm-dd>.json)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let only_arg =
    let doc =
      "Run only the named workloads (comma-separated).  Names match a model's \
       path, basename or basename without extension, or one of the composite \
       workloads $(b,whatif_sweep), $(b,whatif_structural), $(b,fleet_load), \
       $(b,proxy_load).  Skipped workloads appear in the snapshot with status \
       \"skipped\", so filtered snapshots stay schema-compatible."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAME[,NAME]" ~doc)
  in
  let run files iterations json out only =
    let only_names =
      Option.map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun n -> n <> ""))
        only
    in
    let selected name =
      match only_names with
      | None -> true
      | Some names ->
        List.exists
          (fun n ->
            n = name
            || n = Filename.basename name
            || n = Filename.remove_extension (Filename.basename name))
          names
    in
    let files =
      if files <> [] then files
      else if Sys.file_exists "benchmarks" && Sys.is_directory "benchmarks" then
        (Sys.readdir "benchmarks" |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".g")
        |> List.sort compare
        |> List.map (Filename.concat "benchmarks"))
        (* plus the built-in synthetic workloads: gen-dense is large
           enough that the simulate phase dominates the pipeline,
           gen-10k is large enough that the jobs-scaling pass means
           something, and gen-10k-file is gen-10k read back from its
           export, so its load phase measures the parser *)
        @ [ "gen-dense"; "gen-10k"; gen10k_file ]
      else if only <> None then []
      else begin
        Fmt.epr "tsa: no models given and no benchmarks/ directory here@.";
        exit 2
      end
    in
    let files = List.filter selected files in
    let iterations = max 1 iterations in
    let wall f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    (* gen-10k-file's text, exported once to a temporary .g *)
    let exported =
      lazy
        (let path = Filename.temp_file "gen-10k" ".g" in
         at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
         Tsg_io.Stg_format.write_file ~model:"gen-10k" path
           (Option.get (builtin "gen-10k"));
         path)
    in
    let source file = if file = gen10k_file then Lazy.force exported else file in
    let one_iter ~jobs file =
      let path = source file in
      Tsg_engine.Metrics.reset ();
      match wall (fun () -> load_model path) with
      | Error msg, _ -> Error (`Error msg)
      | Ok (name, g), bi_load -> (
        match wall (fun () -> Cycle_time.analyze ~jobs g) with
        | report, bi_total ->
          Ok
            ( name,
              g,
              report,
              {
                bi_load;
                bi_total;
                bi_unfold = Tsg_engine.Metrics.total_ms "analyze/unfold";
                bi_simulate = Tsg_engine.Metrics.total_ms "analyze/simulate";
                bi_backtrack = Tsg_engine.Metrics.total_ms "analyze/backtrack";
              } )
        (* a model the algorithm does not apply to (no cycles, dead
           events) is not a benchmark failure — keep it in the snapshot
           as not_applicable so its absence from the tables is
           self-explaining *)
        | exception Cycle_time.Not_analyzable msg -> Error (`Not_applicable msg))
    in
    (* a model that fails once would fail every time; stop at the first
       error but keep benchmarking the remaining files *)
    let bench_one ~jobs file =
      let rec go i acc =
        if i >= iterations then Ok (List.rev acc)
        else
          match one_iter ~jobs file with
          | Error e -> if acc = [] then Error e else Ok (List.rev acc)
          | Ok r -> go (i + 1) (r :: acc)
      in
      (file, go 0 [])
    in
    let results = List.map (bench_one ~jobs:1) files in
    let mean sel rs = List.fold_left (fun s r -> s +. sel r) 0. rs /. float_of_int (List.length rs) in
    let best sel rs = List.fold_left (fun m r -> Float.min m (sel r)) infinity rs in
    (* jobs scaling: run every analyzable model at 2, 4 and the
       recommended domain count (deduplicated) and record the
       simulate-phase and total means per level; the jobs=1 row reuses
       the primary pass above instead of re-running it *)
    let job_levels =
      List.sort_uniq compare [ 1; 2; 4; Tsg_engine.Pool.recommended () ]
    in
    let scaling =
      List.map
        (fun (file, outcome) ->
          ( file,
            match outcome with
            | Error _ -> []
            | Ok primary ->
              List.filter_map
                (fun jobs ->
                  let runs =
                    if jobs = 1 then Ok primary else snd (bench_one ~jobs file)
                  in
                  match runs with
                  | Error _ -> None
                  | Ok runs ->
                    let iters = List.map (fun (_, _, _, it) -> it) runs in
                    Some
                      ( jobs,
                        mean (fun i -> i.bi_simulate) iters,
                        mean (fun i -> i.bi_total) iters ))
                job_levels ))
        results
    in
    (* what-if sweep workload: one warm-start base + 64 re-analyses vs
       64 independent cold analyses of gen-dense with one delay edit
       each.  The edits are deterministic — spread across the arc ids,
       alternating signs, clamped so no delay goes negative — so
       snapshots stay comparable across runs.  jobs=1 throughout: this
       row measures the warm-start algorithm, not the pool. *)
    let sweep_stats =
      if not (selected "whatif_sweep") then None
      else begin
        let g = Option.get (builtin "gen-dense") in
        let arcs = Signal_graph.arc_count g in
        let base, sw_prepare_ms = wall (fun () -> Whatif.prepare g) in
        let scenarios =
          Array.init 64 (fun i ->
              let arc = i * 997 mod arcs in
              let nominal = (Signal_graph.arc g arc).Signal_graph.delay in
              let magnitude = 0.5 +. (float_of_int (i mod 7) /. 4.) in
              let delta =
                if i land 1 = 0 then magnitude else Float.max (-.nominal) (-.magnitude)
              in
              let delta = if delta = 0. then magnitude else delta in
              [ { Whatif.arc; delta } ])
        in
        let periods = Whatif.periods base in
        let cold, sw_cold_ms =
          wall (fun () ->
              Array.map
                (fun edits ->
                  Cycle_time.analyze ~periods (Whatif.edited_graph base edits))
                scenarios)
        in
        let warm, sw_warm_ms =
          wall (fun () ->
              let scratch = Whatif.scratch base in
              Array.map (fun edits -> Whatif.reanalyze ~scratch base edits) scenarios)
        in
        let sw_reused = Array.fold_left (fun s (_, st) -> s + st.Whatif.reused) 0 warm in
        let sw_resim =
          Array.fold_left (fun s (_, st) -> s + st.Whatif.resimulated) 0 warm
        in
        (* the headline guarantee, checked on every snapshot: warm
           reports serialize byte-identically to the cold ones *)
        let sw_identical =
          Array.for_all2
            (fun c (w, _) ->
              Tsg_io.Json.to_string (Tsg_io.Json_report.analysis_obj g c)
              = Tsg_io.Json.to_string (Tsg_io.Json_report.analysis_obj g w))
            cold warm
        in
        Some (sw_prepare_ms, sw_cold_ms, sw_warm_ms, sw_reused, sw_resim, sw_identical)
      end
    in
    (* structural what-if workload: 48 deterministic arc-level edits of
       gen-dense (chord removals, forward chord insertions, and mixed
       structural+delay scenarios), warm patch-and-repair vs 48
       independent cold analyses.  Every scenario removes or adds only
       unmarked chords, so the border never moves and the whole sweep
       exercises the warm structural path.  Byte-identity here is a
       hard check: a snapshot with diverging reports is worthless, so
       the bench fails outright. *)
    let structural_stats =
      if not (selected "whatif_structural") then None
      else begin
        let g = Option.get (builtin "gen-dense") in
        let events = Signal_graph.event_count g in
        let arcs = Signal_graph.arcs g in
        let chords =
          Array.of_list
            (List.filter
               (fun i -> not arcs.(i).Signal_graph.marked)
               (List.init (Array.length arcs - events) (fun i -> events + i)))
        in
        let base, st_prepare_ms = wall (fun () -> Whatif.prepare g) in
        let chord k = chords.(k * 131 mod Array.length chords) in
        let add k =
          (* forward, unmarked: src in the lower half of the ring, dst
             in the upper — can never close a token-free cycle and
             never touches the border *)
          let src = k * 13 mod (events / 2) in
          let dst = (events / 2) + (k * 29 mod (events / 2)) in
          Whatif.Add_arc
            { src; dst; delay = 1.0 +. float_of_int (k mod 5); marked = false }
        in
        let scenarios =
          Array.init 48 (fun i ->
              match i mod 3 with
              | 0 -> [ Whatif.Remove_arc (chord i) ]
              | 1 -> [ add i ]
              | _ ->
                [
                  Whatif.Remove_arc (chord i);
                  add (i + 7);
                  Whatif.Delay
                    { arc = i mod events; delta = 0.5 +. float_of_int (i mod 3) };
                ])
        in
        let periods = Whatif.periods base in
        let cold, st_cold_ms =
          wall (fun () ->
              Array.map
                (fun cs ->
                  let g' = Whatif.edited_graph_changes base cs in
                  (g', Cycle_time.analyze ~periods g'))
                scenarios)
        in
        Tsg_engine.Metrics.reset ();
        let warm, st_warm_ms =
          wall (fun () ->
              let scratch = Whatif.scratch base in
              Array.map (fun cs -> Whatif.reanalyze_changes ~scratch base cs) scenarios)
        in
        let st_spliced = Tsg_engine.Metrics.count "whatif/instances_spliced" in
        let st_dropped = Tsg_engine.Metrics.count "whatif/instances_dropped" in
        let st_warm_paths =
          Array.fold_left
            (fun n (_, st) -> n + if st.Whatif.path = Whatif.Warm then 1 else 0)
            0 warm
        in
        let identical =
          Array.for_all2
            (fun (g', c) (w, _) ->
              Tsg_io.Json.to_string (Tsg_io.Json_report.analysis_obj g' c)
              = Tsg_io.Json.to_string (Tsg_io.Json_report.analysis_obj g' w))
            cold warm
        in
        if not identical then begin
          Fmt.epr
            "tsa: BENCH FAILURE: structural warm reports differ from cold reports@.";
          exit 1
        end;
        Some (st_prepare_ms, st_cold_ms, st_warm_ms, st_warm_paths, st_spliced, st_dropped)
      end
    in
    let cores = Tsg_engine.Pool.recommended () in
    (* the serving-tier workload is environment-dependent (subprocess
       spawning, loopback TCP): a sandbox that forbids either yields
       an error entry instead of killing the whole snapshot *)
    let fleet_outcome =
      if not (selected "fleet_load") then None
      else
        Some
          (match run_fleet_load () with
          | fl -> Ok fl
          | exception exn -> Error (Printexc.to_string exn))
    in
    let proxy_outcome =
      if not (selected "proxy_load") then None
      else
        Some
          (match run_proxy_load () with
          | pl -> Ok pl
          | exception exn -> Error (Printexc.to_string exn))
    in
    let module J = Tsg_io.Json in
    let fleet_json =
      match fleet_outcome with
      | None -> J.Obj [ ("status", J.String "skipped") ]
      | Some (Error msg) ->
        J.Obj [ ("status", J.String "error"); ("error", J.String msg) ]
      | Some (Ok fl) ->
        let rps ms = float_of_int fl.fl_requests /. (ms /. 1000.) in
        J.Obj
          [
            (* single-core containers cannot show the >=2x fleet
               speedup (three replicas share one core); the snapshot
               records the status so CI can gate softly, like the
               jobs-scaling gate *)
            ( "status",
              J.String (if cores <= 1 then "single_core" else "ok") );
            ("requests", J.Int fl.fl_requests);
            ("client_threads", J.Int fl.fl_threads);
            ("replicas", J.Int fl.fl_replicas);
            ("cores", J.Int cores);
            ("single_ms", J.Float fl.fl_single_ms);
            ("fleet_ms", J.Float fl.fl_fleet_ms);
            ("single_rps", J.Float (rps fl.fl_single_ms));
            ("fleet_rps", J.Float (rps fl.fl_fleet_ms));
            ("speedup", J.Float (fl.fl_single_ms /. fl.fl_fleet_ms));
            ("failed", J.Int fl.fl_failed);
            ("byte_identical", J.Bool fl.fl_identical);
          ]
    in
    let proxy_json =
      match proxy_outcome with
      | None -> J.Obj [ ("status", J.String "skipped") ]
      | Some (Error msg) ->
        J.Obj [ ("status", J.String "error"); ("error", J.String msg) ]
      | Some (Ok pl) ->
        let rps ms = float_of_int pl.pl_requests /. (ms /. 1000.) in
        J.Obj
          [
            (* on a single core the proxy subprocess competes with the
               replicas and the client for the same core, so the
               overhead ratio is noise; the snapshot records the
               status and CI gates softly, like fleet_load *)
            ("status", J.String (if cores <= 1 then "single_core" else "ok"));
            ("requests", J.Int pl.pl_requests);
            ("client_threads", J.Int pl.pl_threads);
            ("replicas", J.Int pl.pl_replicas);
            ("cores", J.Int cores);
            ("direct_ms", J.Float pl.pl_direct_ms);
            ("proxy_ms", J.Float pl.pl_proxy_ms);
            ("direct_rps", J.Float (rps pl.pl_direct_ms));
            ("proxy_rps", J.Float (rps pl.pl_proxy_ms));
            ("overhead", J.Float ((pl.pl_proxy_ms /. pl.pl_direct_ms) -. 1.));
            ("failed", J.Int pl.pl_failed);
            ("byte_identical", J.Bool pl.pl_identical);
          ]
    in
    let entry_json (file, outcome) =
      match outcome with
      | Error (`Error msg) ->
        J.Obj [ ("file", J.String file); ("status", J.String "error"); ("error", J.String msg) ]
      | Error (`Not_applicable msg) ->
        J.Obj
          [
            ("file", J.String file);
            ("status", J.String "not_applicable");
            ("reason", J.String msg);
          ]
      | Ok runs ->
        let name, g, report, _ = List.hd runs in
        let iters = List.map (fun (_, _, _, it) -> it) runs in
        J.Obj
          [
            ("file", J.String file);
            ("status", J.String "ok");
            ("model", J.String name);
            ("events", J.Int (Signal_graph.event_count g));
            ("arcs", J.Int (Signal_graph.arc_count g));
            ("border", J.Int (List.length report.Cycle_time.border));
            ("cycle_time", J.Float report.Cycle_time.cycle_time);
            ( "total_ms",
              J.Obj
                [
                  ("mean", J.Float (mean (fun i -> i.bi_total) iters));
                  ("min", J.Float (best (fun i -> i.bi_total) iters));
                ] );
            ( "phases_ms",
              J.Obj
                [
                  ("load", J.Float (mean (fun i -> i.bi_load) iters));
                  ("unfold", J.Float (mean (fun i -> i.bi_unfold) iters));
                  ("simulate", J.Float (mean (fun i -> i.bi_simulate) iters));
                  ("backtrack", J.Float (mean (fun i -> i.bi_backtrack) iters));
                ] );
            ( "jobs_scaling",
              J.List
                (match List.assoc_opt file scaling with
                | None -> []
                | Some levels ->
                  List.map
                    (fun (jobs, simulate_ms, total_ms) ->
                      J.Obj
                        [
                          ("jobs", J.Int jobs);
                          ("simulate_ms", J.Float simulate_ms);
                          ("total_ms", J.Float total_ms);
                        ])
                    levels) );
          ]
    in
    let date =
      (* UTC, so snapshots taken around midnight name the same day on
         every machine *)
      let tm = Unix.gmtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
        tm.Unix.tm_mday
    in
    let sweep_json =
      match sweep_stats with
      | None -> J.Obj [ ("status", J.String "skipped") ]
      | Some (sw_prepare_ms, sw_cold_ms, sw_warm_ms, sw_reused, sw_resim, sw_identical)
        ->
        J.Obj
          [
            ("status", J.String "ok");
            ("model", J.String "gen-dense");
            ("scenarios", J.Int 64);
            ("jobs", J.Int 1);
            ("prepare_ms", J.Float sw_prepare_ms);
            ("cold_total_ms", J.Float sw_cold_ms);
            ("warm_reanalyze_ms", J.Float sw_warm_ms);
            ("warm_total_ms", J.Float (sw_prepare_ms +. sw_warm_ms));
            ("speedup", J.Float (sw_cold_ms /. (sw_prepare_ms +. sw_warm_ms)));
            ("reused", J.Int sw_reused);
            ("resimulated", J.Int sw_resim);
            ("byte_identical", J.Bool sw_identical);
          ]
    in
    let structural_json =
      match structural_stats with
      | None -> J.Obj [ ("status", J.String "skipped") ]
      | Some (st_prepare_ms, st_cold_ms, st_warm_ms, st_warm_paths, st_spliced, st_dropped)
        ->
        J.Obj
          [
            (* a single core cannot show the full warm advantage when
               the cold side benefits from cache-warm re-runs; CI gates
               the speedup softly under single_core, like fleet_load *)
            ("status", J.String (if cores <= 1 then "single_core" else "ok"));
            ("model", J.String "gen-dense");
            ("scenarios", J.Int 48);
            ("jobs", J.Int 1);
            ("prepare_ms", J.Float st_prepare_ms);
            ("cold_total_ms", J.Float st_cold_ms);
            ("warm_reanalyze_ms", J.Float st_warm_ms);
            ("warm_total_ms", J.Float (st_prepare_ms +. st_warm_ms));
            ("speedup", J.Float (st_cold_ms /. (st_prepare_ms +. st_warm_ms)));
            ("warm_paths", J.Int st_warm_paths);
            ("instances_spliced", J.Int st_spliced);
            ("instances_dropped", J.Int st_dropped);
            ("byte_identical", J.Bool true);
          ]
    in
    let snapshot =
      J.Obj
        [
          ("schema", J.String "tsa-bench/7");
          ("date", J.String date);
          ("iterations", J.Int iterations);
          ("cores", J.Int cores);
          ("jobs_levels", J.List (List.map (fun j -> J.Int j) job_levels));
          ("benchmarks", J.List (List.map entry_json results));
          ("whatif_sweep", sweep_json);
          ("whatif_structural", structural_json);
          ("fleet_load", fleet_json);
          ("proxy_load", proxy_json);
        ]
    in
    let rendered = J.to_string snapshot in
    let path = Option.value out ~default:(Printf.sprintf "BENCH_%s.json" date) in
    let oc = open_out path in
    output_string oc rendered;
    output_char oc '\n';
    close_out oc;
    if json then print_endline rendered
    else begin
      let width = List.fold_left (fun w f -> max w (String.length f)) 5 files in
      Fmt.pr "%-*s  %8s  %10s  %8s  %8s  %9s  %9s@." width "model" "cycle" "total(ms)"
        "load" "unfold" "simulate" "backtrack";
      List.iter
        (fun (file, outcome) ->
          match outcome with
          | Error (`Error msg) -> Fmt.pr "%-*s  ERROR: %s@." width file msg
          | Error (`Not_applicable msg) -> Fmt.pr "%-*s  n/a: %s@." width file msg
          | Ok runs ->
            let report = (fun (_, _, r, _) -> r) (List.hd runs) in
            let iters = List.map (fun (_, _, _, it) -> it) runs in
            Fmt.pr "%-*s  %8g  %10.2f  %8.2f  %8.2f  %9.2f  %9.2f@." width file
              report.Cycle_time.cycle_time
              (mean (fun i -> i.bi_total) iters)
              (mean (fun i -> i.bi_load) iters)
              (mean (fun i -> i.bi_unfold) iters)
              (mean (fun i -> i.bi_simulate) iters)
              (mean (fun i -> i.bi_backtrack) iters))
        results;
      Fmt.pr "@.jobs scaling (simulate-phase mean ms)@.";
      Fmt.pr "%-*s" width "model";
      List.iter (fun j -> Fmt.pr "  %9s" (Printf.sprintf "jobs=%d" j)) job_levels;
      Fmt.pr "@.";
      List.iter
        (fun (file, levels) ->
          if levels <> [] then begin
            Fmt.pr "%-*s" width file;
            List.iter (fun (_, simulate_ms, _) -> Fmt.pr "  %9.2f" simulate_ms) levels;
            Fmt.pr "@."
          end)
        scaling;
      (match sweep_stats with
      | None -> ()
      | Some (sw_prepare_ms, sw_cold_ms, sw_warm_ms, sw_reused, sw_resim, sw_identical)
        ->
        Fmt.pr "@.what-if sweep (gen-dense, 64 single-arc scenarios, jobs=1)@.";
        Fmt.pr "  cold: 64 independent analyses   %9.2f ms@." sw_cold_ms;
        Fmt.pr "  warm: prepare + 64 re-analyses  %9.2f ms  (%.2f + %.2f)@."
          (sw_prepare_ms +. sw_warm_ms) sw_prepare_ms sw_warm_ms;
        Fmt.pr "  speedup %.2fx; reused %d, resimulated %d border simulations; %s@."
          (sw_cold_ms /. (sw_prepare_ms +. sw_warm_ms))
          sw_reused sw_resim
          (if sw_identical then "reports byte-identical" else "REPORTS DIFFER"));
      (match structural_stats with
      | None -> ()
      | Some (st_prepare_ms, st_cold_ms, st_warm_ms, st_warm_paths, st_spliced, st_dropped)
        ->
        Fmt.pr "@.structural what-if (gen-dense, 48 arc-edit scenarios, jobs=1)@.";
        Fmt.pr "  cold: 48 independent analyses       %9.2f ms@." st_cold_ms;
        Fmt.pr "  warm: prepare + 48 patched repairs  %9.2f ms  (%.2f + %.2f)@."
          (st_prepare_ms +. st_warm_ms) st_prepare_ms st_warm_ms;
        Fmt.pr
          "  speedup %.2fx; %d/48 warm; spliced %d, dropped %d arc instances; \
           reports byte-identical@."
          (st_cold_ms /. (st_prepare_ms +. st_warm_ms))
          st_warm_paths st_spliced st_dropped);
      (match fleet_outcome with
      | None -> ()
      | Some (Error msg) -> Fmt.pr "@.fleet load: skipped (%s)@." msg
      | Some (Ok fl) ->
        let rps ms = float_of_int fl.fl_requests /. (ms /. 1000.) in
        Fmt.pr "@.fleet load (%d mixed analyze/sweep requests, %d client threads)@."
          fl.fl_requests fl.fl_threads;
        Fmt.pr "  1 replica:  %9.2f ms  (%.0f req/s)@." fl.fl_single_ms
          (rps fl.fl_single_ms);
        Fmt.pr "  %d replicas: %9.2f ms  (%.0f req/s)@." fl.fl_replicas
          fl.fl_fleet_ms (rps fl.fl_fleet_ms);
        Fmt.pr "  speedup %.2fx on %d core%s; %d failed; %s@."
          (fl.fl_single_ms /. fl.fl_fleet_ms)
          cores
          (if cores = 1 then "" else "s")
          fl.fl_failed
          (if fl.fl_identical then "analyze responses byte-identical"
           else "ANALYZE RESPONSES DIFFER"));
      (match proxy_outcome with
      | None -> ()
      | Some (Error msg) -> Fmt.pr "@.proxy load: skipped (%s)@." msg
      | Some (Ok pl) ->
        let rps ms = float_of_int pl.pl_requests /. (ms /. 1000.) in
        Fmt.pr
          "@.proxy load (%d mixed analyze/sweep requests, %d client threads, \
           %d replicas)@."
          pl.pl_requests pl.pl_threads pl.pl_replicas;
        Fmt.pr "  direct router: %9.2f ms  (%.0f req/s)@." pl.pl_direct_ms
          (rps pl.pl_direct_ms);
        Fmt.pr "  via tsa proxy: %9.2f ms  (%.0f req/s)@." pl.pl_proxy_ms
          (rps pl.pl_proxy_ms);
        Fmt.pr "  overhead %.1f%% on %d core%s; %d failed; %s@."
          (((pl.pl_proxy_ms /. pl.pl_direct_ms) -. 1.) *. 100.)
          cores
          (if cores = 1 then "" else "s")
          pl.pl_failed
          (if pl.pl_identical then "analyze responses byte-identical"
           else "ANALYZE RESPONSES DIFFER"))
    end;
    Fmt.epr "tsa: snapshot written to %s@." path
  in
  let doc =
    "Benchmark the analysis pipeline: time every model over N iterations with a \
     per-phase breakdown (load/unfold/simulate/backtrack), a jobs-scaling pass, \
     a what-if sweep workload (warm-start vs cold re-analysis), a \
     whatif_structural workload (arc add/remove/mark edits repaired in the warm \
     path vs cold re-analysis), a fleet_load serving-tier workload (1 vs 3 \
     TCP replicas under a multi-threaded client) and a proxy_load workload \
     (client-side routing vs the same fleet behind $(b,tsa proxy)), then write \
     a dated JSON snapshot for regression tracking.  $(b,--only) NAME[,NAME] \
     restricts the run to the named models or workloads (whatif_sweep, \
     whatif_structural, fleet_load, proxy_load); skipped workloads record \
     \"skipped\" in the snapshot."
  in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(const run $ files_arg $ iterations_arg $ json_arg $ out_arg $ only_arg)

let all_instances u =
  let g = Unfolding.signal_graph u in
  let result = ref [] in
  for p = 0 to Unfolding.periods u - 1 do
    for e = 0 to Signal_graph.event_count g - 1 do
      match Unfolding.instance_opt u ~event:e ~period:p with
      | Some _ -> result := (e, p) :: !result
      | None -> ()
    done
  done;
  List.rev !result

let sort_by_time u (sim : Timing_sim.result) instances =
  List.sort
    (fun (e1, p1) (e2, p2) ->
      Float.compare
        sim.Timing_sim.time.(Unfolding.instance u ~event:e1 ~period:p1)
        sim.Timing_sim.time.(Unfolding.instance u ~event:e2 ~period:p2))
    instances

let simulate_cmd =
  let run input periods initiate =
    let _, g = graph_of_input input in
    let periods = Option.value periods ~default:2 in
    let u = Unfolding.make g ~periods in
    let sim =
      match initiate with
      | None -> Timing_sim.simulate u
      | Some ev ->
        let id = resolve_event g ev in
        Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:id ~period:0)
    in
    let instances =
      List.filter
        (fun (e, p) ->
          sim.Timing_sim.reached.(Unfolding.instance u ~event:e ~period:p))
        (all_instances u)
      |> sort_by_time u sim
    in
    Fmt.pr "%t@." (Tsg_io.Report.pp_simulation_table u sim ~events:instances)
  in
  let doc = "Print the timing-simulation table (occurrence times per event instance)." in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const run $ input_arg $ periods_arg $ initiate_arg)

let diagram_cmd =
  let horizon_arg =
    let doc = "Rightmost time shown." in
    Arg.(value & opt float 30. & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let run input periods initiate horizon =
    let _, g = graph_of_input input in
    let periods = Option.value periods ~default:8 in
    let u = Unfolding.make g ~periods in
    let sim =
      match initiate with
      | None -> Timing_sim.simulate u
      | Some ev ->
        let id = resolve_event g ev in
        Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:id ~period:0)
    in
    let options = { Tsg_io.Timing_diagram.default_options with horizon } in
    print_string (Tsg_io.Timing_diagram.render ~options u sim)
  in
  let doc = "Render an ASCII timing diagram (Fig. 1c/1d of the paper)." in
  Cmd.v
    (Cmd.info "diagram" ~doc)
    Term.(const run $ input_arg $ periods_arg $ initiate_arg $ horizon_arg)

let cycles_cmd =
  let limit_arg =
    let doc = "Stop after N cycles." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run input limit =
    let _, g = graph_of_input input in
    let cycles = Cycles.simple_cycles ?limit g in
    List.iter
      (fun c ->
        Fmt.pr "%a   length %g, eps %d, effective %g@." (Cycles.pp_cycle g) c
          c.Cycles.length c.Cycles.occurrence_period (Cycles.effective_length c))
      cycles;
    Fmt.pr "%d simple cycle%s@." (List.length cycles)
      (if List.length cycles = 1 then "" else "s")
  in
  let doc = "Enumerate the simple cycles and their effective lengths (Section V)." in
  Cmd.v (Cmd.info "cycles" ~doc) Term.(const run $ input_arg $ limit_arg)

let baselines_cmd =
  let run input =
    let _, g = graph_of_input input in
    let report = Cycle_time.analyze g in
    let exhaustive, _ = Tsg_baselines.Exhaustive.cycle_time g in
    Fmt.pr "timing simulation (this paper): %a@." Tsg_io.Report.pp_rational
      report.Cycle_time.cycle_time;
    Fmt.pr "Karp maximum mean cycle:        %a@." Tsg_io.Report.pp_rational
      (Tsg_baselines.Karp.cycle_time g);
    Fmt.pr "Howard policy iteration:        %a@." Tsg_io.Report.pp_rational
      (Tsg_baselines.Howard.cycle_time g);
    Fmt.pr "Lawler binary search:           %a@." Tsg_io.Report.pp_rational
      (Tsg_baselines.Lawler.cycle_time g);
    Fmt.pr "max-plus spectral radius:       %a@." Tsg_io.Report.pp_rational
      (Tsg_maxplus.Of_signal_graph.cycle_time g);
    Fmt.pr "exhaustive cycle enumeration:   %a@." Tsg_io.Report.pp_rational exhaustive
  in
  let doc = "Compare the paper's algorithm against the classical baselines." in
  Cmd.v (Cmd.info "baselines" ~doc) Term.(const run $ input_arg)

let dot_cmd =
  let run input =
    let _, g = graph_of_input input in
    let dg = Signal_graph.to_digraph g in
    let arc_label aid =
      let a = Signal_graph.arc g aid in
      Printf.sprintf "%g%s%s" a.Signal_graph.delay
        (if a.Signal_graph.marked then " *" else "")
        (if a.Signal_graph.disengageable then " once" else "")
    in
    let arc_attrs aid =
      let a = Signal_graph.arc g aid in
      (if a.Signal_graph.marked then [ ("style", "bold") ] else [])
      @ if a.Signal_graph.disengageable then [ ("style", "dashed") ] else []
    in
    print_string
      (Tsg_graph.Dot.to_string
         ~vertex_label:(fun v -> Event.to_string (Signal_graph.event g v))
         ~arc_label ~arc_attrs dg)
  in
  let doc = "Export the graph in Graphviz dot format." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ input_arg)

let export_cmd =
  let run input =
    let name, g = graph_of_input input in
    print_string (Tsg_io.Stg_format.to_string ~model:name g)
  in
  let doc = "Print the model in the .g exchange format (useful for the built-ins)." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ input_arg)

let extract_cmd =
  let run which =
    let name, net =
      match which with
      | "fig1" -> ("fig1", Tsg_circuit.Circuit_library.fig1_netlist ())
      | "ring5" -> ("ring5", Tsg_circuit.Circuit_library.muller_ring_netlist ())
      | path -> (
        match Tsg_io.Net_format.parse_file path with
        | Ok doc -> (doc.Tsg_io.Net_format.netlist_name, doc.Tsg_io.Net_format.netlist)
        | Error msg ->
          Fmt.epr "tsa: cannot load net-list %s: %s@." path msg;
          exit 1)
    in
    match Tsg_extract.Traspec.extract net with
    | extraction ->
      let g = extraction.Tsg_extract.Traspec.graph in
      Fmt.pr "# extracted signal graph (distributivity verified)@.";
      print_string (Tsg_io.Stg_format.to_string ~model:name g)
    | exception Tsg_extract.Traspec.Extraction_error msg ->
      Fmt.epr "tsa: extraction failed: %s@." msg;
      exit 1
  in
  let which_arg =
    let doc = "A .net file, or a built-in net-list ($(b,fig1), $(b,ring5))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NETLIST" ~doc)
  in
  let doc = "Extract a Signal Graph from a gate net-list (the TRASPEC flow)." in
  Cmd.v (Cmd.info "extract" ~doc) Term.(const run $ which_arg)

let slack_cmd =
  let run input json =
    let _, g = graph_of_input input in
    match Slack.analyze g with
    | report when json -> print_endline (Tsg_io.Json_report.slack g report)
    | report -> Fmt.pr "%a@." (Tsg_io.Report.pp_slack_table g) report
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
  in
  let doc =
    "Per-arc slack: how much each delay can grow before the cycle time degrades."
  in
  Cmd.v (Cmd.info "slack" ~doc) Term.(const run $ input_arg $ json_arg)

let steady_cmd =
  let max_periods_arg =
    let doc = "Simulation horizon in unfolding periods." in
    Arg.(value & opt (some int) None & info [ "max-periods" ] ~docv:"N" ~doc)
  in
  let run input max_periods =
    let _, g = graph_of_input input in
    match Steady_state.detect ?max_periods g with
    | Some s -> Fmt.pr "%a@." Tsg_io.Report.pp_steady s
    | None ->
      Fmt.epr "tsa: no periodic pattern found within the horizon (try --max-periods)@.";
      exit 1
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
  in
  let doc = "Detect the eventually-periodic regime of the timing simulation." in
  Cmd.v (Cmd.info "steady" ~doc) Term.(const run $ input_arg $ max_periods_arg)

let vcd_cmd =
  let out_arg =
    let doc = "Output path (default: MODEL.vcd)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let scale_arg =
    let doc = "Multiply times by this factor before rounding to VCD ticks." in
    Arg.(value & opt float 1. & info [ "scale" ] ~docv:"F" ~doc)
  in
  let run input periods initiate out scale =
    let name, g = graph_of_input input in
    let periods = Option.value periods ~default:8 in
    let u = Unfolding.make g ~periods in
    let sim =
      match initiate with
      | None -> Timing_sim.simulate u
      | Some ev ->
        let id = resolve_event g ev in
        Timing_sim.simulate_initiated u ~at:(Unfolding.instance u ~event:id ~period:0)
    in
    let path = Option.value out ~default:(Filename.basename name ^ ".vcd") in
    Tsg_io.Vcd.write_file ~scale path u sim;
    Fmt.pr "wrote %s@." path
  in
  let doc = "Export the timing simulation as a VCD waveform (viewable in GTKWave)." in
  Cmd.v
    (Cmd.info "vcd" ~doc)
    Term.(const run $ input_arg $ periods_arg $ initiate_arg $ out_arg $ scale_arg)

let bounds_cmd =
  let percent_arg =
    let doc = "Relative delay uncertainty in percent." in
    Arg.(value & opt float 10. & info [ "percent" ] ~docv:"P" ~doc)
  in
  let runs_arg =
    let doc = "Monte-Carlo runs (0 disables the simulation estimate)." in
    Arg.(value & opt int 20 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let run input percent runs =
    let _, g = graph_of_input input in
    let nominal = Cycle_time.cycle_time g in
    let bracket = Interval.of_relative_tolerance g ~percent in
    Fmt.pr "nominal cycle time:        %a@." Tsg_io.Report.pp_rational nominal;
    Fmt.pr "interval bracket (+-%g%%):  [%g, %g]@." percent bracket.Interval.lower
      bracket.Interval.upper;
    if runs > 0 then begin
      let s =
        Monte_carlo.estimate ~runs g
          ~sampler:(Monte_carlo.uniform_jitter g ~percent)
      in
      Fmt.pr
        "Monte-Carlo (per-occurrence jitter): mean %.4f, std %.4f over %d runs [%.4f, %.4f]@."
        s.Monte_carlo.mean s.Monte_carlo.std s.Monte_carlo.runs s.Monte_carlo.low
        s.Monte_carlo.high
    end
  in
  let doc = "Cycle-time bounds under delay uncertainty (interval corners + Monte Carlo)." in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const run $ input_arg $ percent_arg $ runs_arg)

let skew_cmd =
  let run input from_ to_ =
    let _, g = graph_of_input input in
    match Separation.analyze g with
    | None ->
      Fmt.epr "tsa: no steady-state pattern found@.";
      exit 1
    | Some t -> (
      let resolve = resolve_event g in
      match (from_, to_) with
      | Some f, Some tt ->
        let skews = Separation.steady_skew t ~from_:(resolve f) ~to_:(resolve tt) in
        Fmt.pr "steady-state separation t(%a) - t(%a): %a@." Event.pp tt Event.pp f
          Fmt.(list ~sep:(any ", ") float)
          skews;
        let lo, hi = Separation.extremes t ~from_:(resolve f) ~to_:(resolve tt) in
        Fmt.pr "extremes over the whole simulation (transient included): [%g, %g]@." lo hi
      | _ ->
        (* no pair given: print every event's phase in the pattern *)
        Fmt.pr "%a@." (Tsg_io.Report.pp_phases g) t)
  in
  let from_arg =
    let doc = "Reference event." in
    Arg.(value & opt (some event_conv) None & info [ "from" ] ~docv:"EVENT" ~doc)
  in
  let to_arg =
    let doc = "Target event." in
    Arg.(value & opt (some event_conv) None & info [ "to" ] ~docv:"EVENT" ~doc)
  in
  let doc = "Steady-state time separations (skews) between events." in
  Cmd.v (Cmd.info "skew" ~doc) Term.(const run $ input_arg $ from_arg $ to_arg)

let pert_cmd =
  let run input =
    let _, g = graph_of_input input in
    match Pert.analyze g with
    | report -> Fmt.pr "%a@." (Pert.pp g) report
    | exception Invalid_argument msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
  in
  let doc = "PERT analysis of an acyclic model (makespan, critical path, floats)." in
  Cmd.v (Cmd.info "pert" ~doc) Term.(const run $ input_arg)

let critical_cmd =
  let limit_arg =
    let doc = "Stop after N critical cycles." in
    Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run input limit =
    let _, g = graph_of_input input in
    match Slack.all_critical_cycles ?limit g with
    | cycles ->
      List.iter
        (fun c ->
          Fmt.pr "%a   (length %g, eps %d)@." (Cycles.pp_cycle g) c c.Cycles.length
            c.Cycles.occurrence_period)
        cycles;
      Fmt.pr "%d critical cycle%s at cycle time %a@." (List.length cycles)
        (if List.length cycles = 1 then "" else "s")
        Tsg_io.Report.pp_rational
        (Cycle_time.cycle_time g)
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
  in
  let doc = "Enumerate every critical cycle (via the zero-slack subgraph)." in
  Cmd.v (Cmd.info "critical" ~doc) Term.(const run $ input_arg $ limit_arg)

let parametric_cmd =
  let from_arg =
    let doc = "Source event of the arc whose delay varies." in
    Arg.(required & opt (some event_conv) None & info [ "from" ] ~docv:"EVENT" ~doc)
  in
  let to_arg =
    let doc = "Target event of the arc." in
    Arg.(required & opt (some event_conv) None & info [ "to" ] ~docv:"EVENT" ~doc)
  in
  let run input from_ to_ =
    let _, g = graph_of_input input in
    let src = resolve_event g from_ and dst = resolve_event g to_ in
    let arc =
      match
        List.find_opt
          (fun aid -> (Signal_graph.arc g aid).Signal_graph.arc_dst = dst)
          (Signal_graph.out_arc_ids g src)
      with
      | Some aid -> aid
      | None ->
        Fmt.epr "tsa: no arc %a -> %a in the graph@." Event.pp from_ Event.pp to_;
        exit 1
    in
    match Parametric.analyze g ~arc with
    | p ->
      let nominal = (Signal_graph.arc g arc).Signal_graph.delay in
      Fmt.pr "cycle time as a function of delay(%a -> %a):@.@." Event.pp from_ Event.pp to_;
      List.iter
        (fun (x_from, c, s) ->
          if s = 0. then Fmt.pr "  x >= %-6g : lambda = %g@." x_from c
          else Fmt.pr "  x >= %-6g : lambda = %g + %g x@." x_from c s)
        (Parametric.pieces p);
      Fmt.pr "@.nominal delay %g gives lambda = %a" nominal Tsg_io.Report.pp_rational
        (Parametric.eval p nominal);
      (match Parametric.breakpoints p with
      | [] -> Fmt.pr "; no breakpoints (one line dominates)@."
      | bps ->
        Fmt.pr "; breakpoints at %a@." Fmt.(list ~sep:(any ", ") float) bps)
    | exception Invalid_argument msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
  in
  let doc = "The cycle time as a piecewise-linear function of one arc's delay." in
  Cmd.v (Cmd.info "parametric" ~doc) Term.(const run $ input_arg $ from_arg $ to_arg)

let check_cmd =
  let run input =
    let name, g = graph_of_input input in
    Fmt.pr "model %s: %d events (%d repetitive), %d arcs, %d signals@." name
      (Signal_graph.event_count g)
      (Signal_graph.repetitive_count g)
      (Signal_graph.arc_count g)
      (List.length (Signal_graph.signals g));
    (* static validation already ran during loading; report dynamics *)
    let d = Marking.check_dynamics ~rounds:100 g in
    Fmt.pr "switch-over correctness: %s@."
      (if d.Marking.switch_over_ok then "ok" else "VIOLATED");
    Fmt.pr "auto-concurrency:        %s@."
      (if d.Marking.auto_concurrency_free then "none" else "DETECTED");
    Fmt.pr "largest token count:     %d%s@." d.Marking.bounded_by
      (if d.Marking.bounded_by <= 1 then " (safe)" else "");
    (if Signal_graph.repetitive_count g > 0 then begin
       let border = Cut_set.border g in
       Fmt.pr "border events:           %d@." (List.length border);
       Fmt.pr "cycle time:              %a@." Tsg_io.Report.pp_rational
         (Cycle_time.cycle_time g)
     end
     else Fmt.pr "acyclic model (use 'tsa pert')@.");
    (match Simplify.redundant_arcs g with
    | [] -> Fmt.pr "redundant arcs:          none@."
    | arcs ->
      Fmt.pr "redundant arcs:          %d (%s)@." (List.length arcs)
        (String.concat "; " (List.map (Fmt.str "%a" (Tsg_io.Report.pp_arc g)) arcs)));
    if not (d.Marking.switch_over_ok && d.Marking.auto_concurrency_free) then exit 2
  in
  let doc = "Health-check a model: dynamics, boundedness, redundant arcs." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ input_arg)

let optimize_cmd =
  let budget_arg =
    let doc = "Total delay reduction available." in
    Arg.(value & opt float 1. & info [ "budget" ] ~docv:"B" ~doc)
  in
  let floor_arg =
    let doc = "Smallest delay any arc may reach." in
    Arg.(value & opt float 0. & info [ "floor" ] ~docv:"F" ~doc)
  in
  let pad_arg =
    let doc = "Instead of speeding up, pad non-critical arcs by this fraction of the joint slack." in
    Arg.(value & opt (some float) None & info [ "pad" ] ~docv:"FRACTION" ~doc)
  in
  let run input budget floor pad =
    let _, g = graph_of_input input in
    match pad with
    | Some fraction ->
      let o = Optimize.exploit_slack ~fraction g in
      List.iter
        (fun s ->
          Fmt.pr "pad %a by %g@." (Tsg_io.Report.pp_arc g) s.Optimize.step_arc
            s.Optimize.change)
        o.Optimize.steps;
      Fmt.pr "total padding %g; cycle time %a (unchanged)@.@." o.Optimize.spent
        Tsg_io.Report.pp_rational o.Optimize.lambda;
      print_string (Tsg_io.Stg_format.to_string ~model:"padded" o.Optimize.graph)
    | None ->
      let o = Optimize.speed_up ~budget ~floor g in
      List.iteri
        (fun i s ->
          Fmt.pr "step %d: %a by %g => lambda %g@." (i + 1)
            (Tsg_io.Report.pp_arc o.Optimize.graph)
            s.Optimize.step_arc (-.s.Optimize.change) s.Optimize.lambda_after)
        o.Optimize.steps;
      Fmt.pr "final cycle time %a after spending %g@.@." Tsg_io.Report.pp_rational
        o.Optimize.lambda o.Optimize.spent;
      print_string (Tsg_io.Stg_format.to_string ~model:"optimized" o.Optimize.graph)
  in
  let doc = "Slack-driven optimisation: speed up critical arcs or pad non-critical ones." in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(const run $ input_arg $ budget_arg $ floor_arg $ pad_arg)

let () =
  let doc = "performance analysis of concurrent systems by timing simulation" in
  let info = Cmd.info "tsa" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            batch_cmd;
            sweep_cmd;
            bench_cmd;
            serve_cmd;
            client_cmd;
            proxy_cmd;
            fleet_cmd;
            simulate_cmd;
            diagram_cmd;
            cycles_cmd;
            baselines_cmd;
            dot_cmd;
            export_cmd;
            extract_cmd;
            slack_cmd;
            steady_cmd;
            vcd_cmd;
            bounds_cmd;
            skew_cmd;
            pert_cmd;
            critical_cmd;
            parametric_cmd;
            check_cmd;
            optimize_cmd;
          ]))
