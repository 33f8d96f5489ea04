(* tsa — Timing-Simulation Analyzer.

   Command-line front end for the timesim library: cycle-time analysis
   (the DAC'94 algorithm), timing simulation tables, ASCII timing
   diagrams, simple-cycle enumeration, baseline comparison, Graphviz
   export, and built-in demo models. *)

open Cmdliner
open Tsg

module Service = Tsg_io.Service

let graph_of_input path =
  match Service.load_model path with
  | Ok r -> r
  | Error msg ->
    Fmt.epr "tsa: %s@." msg;
    exit 1

let input_arg =
  let doc =
    "Input model: a .g file, or one of the built-ins $(b,fig1) (the paper's \
     C-element oscillator), $(b,ring5) (the 5-stage Muller ring), $(b,stack) \
     (the 66-event stack controller), $(b,muller-128) (a 128-stage Muller \
     ring, the bench's worst case), or the generated bench workloads \
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
    let jobs = Service.resolve_jobs jobs in
    let name, g = graph_of_input input in
    let deadline =
      match timeout_ms with
      | None -> Tsg_engine.Deadline.none
      | Some ms -> Tsg_engine.Deadline.make ~budget_ms:ms ()
    in
    match
      Tsg_engine.Deadline.with_deadline deadline (fun () ->
          Cycle_time.analyze ?periods ~jobs g)
    with
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

(* ------------------------------------------------------------------ *)
(* What-if scenario specs (shared by `tsa sweep` and
   `tsa client --delta`)                                               *)

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
    let jobs = Service.resolve_jobs jobs in
    let name, g = graph_of_input input in
    match Whatif.prepare ?periods ~jobs g with
    | exception Cycle_time.Not_analyzable msg ->
      Fmt.epr "tsa: %s@." msg;
      exit 1
    | base ->
      let scenarios = Array.of_list deltas in
      let items = Service.sweep ?budget_ms:timeout_ms ~jobs base scenarios in
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
    let jobs = Service.resolve_jobs jobs in
    (* a model repeated in one batch is analyzed once *)
    let cache = Tsg_engine.Cache.create ~capacity:(List.length files) () in
    let entries =
      Tsg_engine.Batch.run ~jobs ?deadline_ms:timeout_ms ~label:Fun.id
        ~f:(Fun.const (Service.analyze_model ~cache ?periods)) files
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

(* a flag that SIGTERM or SIGINT sets; serve, proxy and fleet drain on it *)
let stop_signals () =
  let stop = Atomic.make false in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  stop

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
  let run socket tcp cache_size cache_dir disk_cache_size shard jobs trace_dir
      max_connections max_sweep max_request_bytes read_timeout write_timeout
      drain_timeout =
    let endpoint = resolve_serve_endpoint ~socket ~tcp in
    let jobs = Service.resolve_jobs jobs in
    (* a replica holds prepared what-if bases and turns over a large
       block per reply (the response buffer and string).  At the
       default space_overhead (120) the major GC let a sweep-serving
       replica peak at 255-355 MiB, bimodally, run to run; at 80 it
       stays near 215 MiB, with no measurable latency or CPU cost on
       cold, hot or sweep traffic *)
    Gc.set { (Gc.get ()) with space_overhead = 80 };
    (match trace_dir with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      Tsg_obs.Trace.enable ());
    let cache = Tsg_engine.Cache.create ~capacity:cache_size () in
    (* the second tier: rendered analyze responses on disk.  Survives
       restarts and is safely shared between replicas because responses
       are byte-identical by construction — any replica's answer is
       every replica's answer. *)
    let disk_cache =
      Option.map
        (fun dir -> Tsg_engine.Disk_cache.create ~capacity:disk_cache_size ~dir ())
        cache_dir
    in
    (* prepared what-if bases are ~b retained float arrays each, far
       heavier than a report: a small separate LRU, so they cannot
       crowd out the analysis cache *)
    let whatif_cache = Tsg_engine.Cache.create ~metrics_prefix:"whatif-cache" ~capacity:8 () in
    (* the endpoint as actually bound — for Tcp {port = 0} the kernel
       picks the port; on_ready stores it before any client is
       accepted, so the stats handler can report this replica's shard
       identity *)
    let bound_endpoint = ref endpoint in
    let handler =
      Service.replica_handler ~cache ~disk_cache ~whatif_cache ~max_sweep ~jobs ~shard
        ~endpoint:(fun () -> !bound_endpoint)
    in
    (* SIGTERM/SIGINT request a graceful drain: stop accepting, let
       in-flight requests finish (up to --drain-timeout), then exit *)
    let stop = stop_signals () in
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
      $ read_timeout_arg $ write_timeout_arg $ drain_timeout_arg)

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
       (HOST:PORT or socket path) and let it route, retry and shed: \
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
    (* one conversation with a daemon: a serve socket, or a proxy —
       the thin-client path, where the proxy owns routing, retries
       and shedding.  Responses (degraded:true stale serves
       included) are printed as received. *)
    let converse daemon endpoint =
      match
        Tsg_engine.Server.call ~retries ~endpoint (List.map request_to_string requests)
      with
      | responses -> List.iter print_endline responses
      | exception Unix.Unix_error (err, _, _) ->
        Fmt.epr "tsa: cannot reach %s: %s (is 'tsa %s' running?)@."
          (Tsg_engine.Server.endpoint_to_string endpoint)
          (Unix.error_message err) daemon;
        exit 1
      | exception Failure msg ->
        Fmt.epr "tsa: %s@." msg;
        exit 1
    in
    match (socket, endpoints, via) with
    | (Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _) ->
      Fmt.epr "tsa: give exactly one of --socket, --endpoints or --via@.";
      exit 2
    | None, None, None ->
      Fmt.epr "tsa: give --socket PATH, --endpoints EP,EP,... or --via EP@.";
      exit 2
    | Some socket, None, None -> converse "serve" (Tsg_engine.Server.Unix_socket socket)
    | None, None, Some spec -> (
      match Tsg_engine.Server.endpoint_of_string (String.trim spec) with
      | Ok endpoint -> converse "proxy" endpoint
      | Error msg ->
        Fmt.epr "tsa: bad --via endpoint %S: %s@." spec msg;
        exit 2)
    | None, Some spec, None ->
      let router = Tsg_engine.Router.create ~retries (parse_endpoint_list spec) in
      let failures = ref 0 in
      List.iter
        (fun req ->
          let line = request_to_string req in
          match Service.routing_key req with
          | Some key -> (
            match Tsg_engine.Router.route router ~key line with
            | Ok response -> print_endline response
            | Error e ->
              incr failures;
              print_endline (Tsg_engine.Protocol.error_line ~code:"unavailable" e))
          | None ->
            List.iter
              (fun (ep, outcome) ->
                match outcome with
                | Ok response -> print_endline response
                | Error e ->
                  incr failures;
                  print_endline
                    (Tsg_engine.Protocol.error_line ~code:"unavailable"
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
       retry withdraws one whole token, so retries are bounded to \
       about this fraction of traffic.  An exhausted budget sheds \
       ('overloaded') instead of retrying."
    in
    Arg.(value & opt float 0.1 & info [ "retry-budget" ] ~docv:"RATIO" ~doc)
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
  let run listen endpoints cache_dir retry_budget queue_depth max_concurrent
      breaker_window breaker_failures breaker_cooldown_ms upstream_timeout
      max_connections =
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
    let proxy =
      try
        Tsg_engine.Proxy.create ~retry_ratio:retry_budget ~queue_depth ~max_concurrent
          ?stale
          (Tsg_engine.Router.create ~timeout_s:upstream_timeout ~breaker_window
             ~breaker_failures ~breaker_cooldown_ms eps)
      with Invalid_argument msg ->
        Fmt.epr "tsa: %s@." msg;
        exit 2
    in
    let bound_endpoint = ref listen_ep in
    let handler =
      Service.proxy_handler ~proxy ~stale ~endpoint:(fun () -> !bound_endpoint)
    in
    let stop = stop_signals () in
    let on_ready ep =
      bound_endpoint := ep;
      Fmt.epr "tsa: proxy on %s fronting %d shards%s@."
        (Tsg_engine.Server.endpoint_to_string ep)
        (Tsg_engine.Router.shard_count (Tsg_engine.Proxy.router proxy))
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
     global retry budget (exhaustion sheds instead of retrying), and \
     admitted through a deadline-aware bounded queue.  With $(b,--cache-dir), \
     requests whose shards are all down are answered stale from the shared \
     disk cache with a degraded:true marker.  $(b,stats) answers locally \
     with the proxy block; $(b,shutdown) drains the fleet behind the proxy, \
     then the proxy itself."
  in
  Cmd.v
    (Cmd.info "proxy" ~doc)
    Term.(
      const run $ listen_arg $ endpoints_arg $ cache_dir_arg $ retry_budget_arg
      $ queue_depth_arg $ max_concurrent_arg $ breaker_window_arg
      $ breaker_failures_arg $ breaker_cooldown_arg $ upstream_timeout_arg
      $ max_connections_arg)

(* ------------------------------------------------------------------ *)
(* Local replica fleets ({!Tsg_io.Fleet})                              *)

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
    match
      Tsg_io.Fleet.start ?cache_dir ~cache_size ~host ~base_port ~proxy:with_proxy
        ~exe:Sys.executable_name ~replicas ()
    with
    | Error msg ->
      Fmt.epr "tsa: %s; terminating@." msg;
      exit 1
    | Ok fleet ->
      (* announce the fleet in a machine-parsable shape: scripts capture
         the endpoints line for --endpoints, the proxy line for --via,
         and the pid lines for kill drills *)
      let members = Tsg_io.Fleet.replicas fleet in
      List.iteri (fun i (pid, ep) -> Fmt.pr "replica %d: pid %d %s@." i pid ep) members;
      Fmt.pr "fleet: endpoints %s@." (String.concat "," (List.map snd members));
      Option.iter (Fmt.pr "fleet: proxy %s@.") (Tsg_io.Fleet.proxy fleet);
      Fmt.pr "fleet: ready@.";
      (* from here the fleet runs until its replicas exit (a client
         broadcast shutdown, a kill drill) or SIGTERM/SIGINT drains it *)
      Tsg_io.Fleet.supervise ~restart ~stop:(stop_signals ()) fleet ~on_event:(function
        | Tsg_io.Fleet.Exited { replica; endpoint; status } ->
          Fmt.pr "fleet: replica %d (%s) exited (%s)@." replica endpoint
            (match status with
            | Unix.WEXITED c -> Printf.sprintf "status %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
        | Tsg_io.Fleet.Restarted { replica; pid } ->
          Fmt.pr "replica %d: restarted pid %d@." replica pid);
      Tsg_io.Fleet.stop fleet;
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
(* The regression-bench harness ({!Tsg_bench.Bench}): its text tables  *)

module Bench = Tsg_bench.Bench

let print_whatif ~title ~kind ~warm counts (w : Bench.whatif) =
  let pad = String.length warm + 2 in
  Fmt.pr "@.%s (gen-dense, %d %s scenarios, jobs=1)@." title w.scenarios kind;
  Fmt.pr "  cold: %-*s%9.2f ms@." pad
    (Printf.sprintf "%d independent analyses" w.scenarios)
    w.cold_ms;
  Fmt.pr "  warm: %-*s%9.2f ms  (%.2f + %.2f)@." pad warm (w.prepare_ms +. w.warm_ms)
    w.prepare_ms w.warm_ms;
  Fmt.pr "  speedup %.2fx; %s; reports byte-identical@."
    (w.cold_ms /. (w.prepare_ms +. w.warm_ms))
    counts

let print_bench (s : Bench.snapshot) =
  let width =
    List.fold_left (fun w (e : Bench.entry) -> max w (String.length e.file)) 5 s.benchmarks
  in
  Fmt.pr "%-*s  %8s  %10s  %8s  %8s  %9s  %9s  %8s@." width "model" "cycle" "total(ms)" "load"
    "unfold" "simulate" "backtrack" "render";
  List.iter
    (fun { Bench.file; outcome } ->
      match outcome with
      | Error (`Error msg) -> Fmt.pr "%-*s  ERROR: %s@." width file msg
      | Error (`Not_applicable msg) -> Fmt.pr "%-*s  n/a: %s@." width file msg
      | Ok m ->
        Fmt.pr "%-*s  %8g  %10.2f  %8.2f  %8.2f  %9.2f  %9.2f  %8.2f@." width file m.cycle_time
          m.total_mean_ms m.phases.load m.phases.unfold m.phases.simulate
          m.phases.backtrack m.phases.render)
    s.benchmarks;
  Fmt.pr "@.jobs scaling (simulate-phase mean ms)@.";
  Fmt.pr "%-*s" width "model";
  List.iter (fun j -> Fmt.pr "  %9s" (Printf.sprintf "jobs=%d" j)) s.jobs_levels;
  Fmt.pr "@.";
  List.iter
    (fun { Bench.file; outcome } ->
      match outcome with
      | Ok m when m.scaling <> [] ->
        Fmt.pr "%-*s" width file;
        List.iter (fun (l : Bench.level) -> Fmt.pr "  %9.2f" l.simulate_ms) m.scaling;
        Fmt.pr "@."
      | _ -> ())
    s.benchmarks;
  Option.iter
    (fun (w : Bench.whatif) ->
      print_whatif ~title:"what-if sweep" ~kind:"single-arc"
        ~warm:(Printf.sprintf "prepare + %d re-analyses" w.scenarios)
        (Printf.sprintf "reused %d, resimulated %d border simulations" w.reused
           w.resimulated)
        w)
    s.whatif_sweep;
  Option.iter
    (fun (w : Bench.whatif) ->
      print_whatif ~title:"structural what-if" ~kind:"arc-edit"
        ~warm:(Printf.sprintf "prepare + %d patched repairs" w.scenarios)
        (Printf.sprintf "%d/%d warm; spliced %d, dropped %d arc instances" w.warm_paths
           w.scenarios w.spliced w.dropped)
        w)
    s.whatif_structural

let bench_cmd =
  let files_arg =
    let doc =
      "Models to benchmark (default: benchmarks/*.g, sorted, then the built-ins \
       $(b,gen-dense), $(b,muller-128) and $(b,gen-10k), and $(b,gen-10k-file): \
       gen-10k exported to a temporary .g and read back, so that its load phase \
       measures parsing)."
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
       workloads $(b,whatif_sweep) and $(b,whatif_structural); a name that \
       matches none of them, or a value that names nothing, exits 2 before \
       anything is timed.  Skipped \
       workloads appear in the snapshot with status \"skipped\", so filtered \
       snapshots stay schema-compatible."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAME[,NAME]" ~doc)
  in
  let run files iterations json out only =
    let files =
      match (files, Bench.default_models ()) with
      | _ :: _, _ -> files
      | [], Some models -> models
      | [], None when only <> None -> []
      | [], None ->
        Fmt.epr "tsa: no models given and no benchmarks/ directory here@.";
        exit 2
    in
    let only =
      Option.map
        (fun s ->
          match Bench.parse_only s files with
          | Ok names -> names
          | Error msg ->
            Fmt.epr "tsa: %s@." msg;
            exit 2)
        only
    in
    match Bench.run ~iterations ?only files with
    | Error msg ->
      Fmt.epr "tsa: BENCH FAILURE: %s@." msg;
      exit 1
    | Ok snapshot ->
      let rendered = Bench.to_json snapshot in
      let path = Option.value out ~default:(Printf.sprintf "BENCH_%s.json" snapshot.date) in
      Out_channel.with_open_text path (fun oc ->
          output_string oc rendered;
          output_char oc '\n');
      if json then print_endline rendered else print_bench snapshot;
      Fmt.epr "tsa: snapshot written to %s@." path
  in
  let doc =
    "Benchmark the analysis pipeline: time every model over N iterations with a \
     per-phase breakdown (load/unfold/simulate/backtrack, then render: the \
     report serialised as a daemon response), a jobs-scaling pass, \
     a what-if sweep workload (warm-start vs cold re-analysis), a \
     whatif_structural workload (arc add/remove/mark edits repaired in the warm \
     path vs cold re-analysis), then write a dated JSON snapshot for regression \
     tracking.  $(b,--only) NAME[,NAME] restricts the run to the named models or \
     workloads (whatif_sweep, whatif_structural); skipped workloads record \
     \"skipped\" in the snapshot.  The served path is timed by fleetbench."
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
