open Tsg
module Json = Tsg_obs.Json
module Metrics = Tsg_engine.Metrics
module Service = Tsg_io.Service

type phases = { load : float; unfold : float; simulate : float; backtrack : float; render : float }
type level = { jobs : int; simulate_ms : float; total_ms : float }

type model = {
  name : string; events : int; arcs : int; border : int; cycle_time : float;
  total_mean_ms : float; total_min_ms : float; phases : phases; scaling : level list;
}

type entry = { file : string; outcome : (model, [ `Error of string | `Not_applicable of string ]) result }

type whatif = {
  scenarios : int; prepare_ms : float; cold_ms : float; warm_ms : float;
  reused : int; resimulated : int; warm_paths : int; spliced : int; dropped : int;
}

type snapshot = {
  date : string; iterations : int; cores : int; jobs_levels : int list;
  benchmarks : entry list;
  whatif_sweep : whatif option; whatif_structural : whatif option;
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let mean sel xs = List.fold_left (fun s x -> s +. sel x) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Per-model passes                                                    *)

(* the bench case that reads gen-10k from a file rather than
   generating it *)
let gen10k_file = "gen-10k-file"

let default_models () =
  if not (Sys.file_exists "benchmarks" && Sys.is_directory "benchmarks") then None
  else
    Some
      ((Sys.readdir "benchmarks" |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".g")
       |> List.sort compare
       |> List.map (Filename.concat "benchmarks"))
      (* plus the built-in synthetic workloads: gen-dense is large
         enough that the simulate phase dominates the pipeline,
         muller-128 is the paper's worst case (b close to n),
         gen-10k is large enough that the jobs-scaling pass means
         something, and gen-10k-file is gen-10k read back from its
         export, so its load phase measures the parser *)
      @ [ "gen-dense"; "muller-128"; "gen-10k"; gen10k_file ])

(* gen-10k-file's text, exported once to a temporary .g *)
let exported =
  lazy
    (let path = Filename.temp_file "gen-10k" ".g" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Tsg_io.Stg_format.write_file ~model:"gen-10k" path (Option.get (Service.builtin "gen-10k"));
     path)

(* one timed analysis: wall-clock totals plus the per-phase wall times
   read back from the Metrics registry (reset before every iteration,
   so iterations don't bleed into each other), then the serialisation
   of the report as the daemon's analyze response *)
let one_iter ~jobs file =
  let path = if file = gen10k_file then Lazy.force exported else file in
  Metrics.reset ();
  match wall (fun () -> Service.load_model path) with
  | Error msg, _ -> Error (`Error msg)
  | Ok (name, g), load -> (
    match wall (fun () -> Cycle_time.analyze ~jobs g) with
    | report, total ->
      let ms = Metrics.total_ms in
      let _, render = wall (fun () -> Tsg_io.Rpc.analyze_response ~model:name g report) in
      Ok
        ( (name, g, report),
          ( total,
            { load; unfold = ms "analyze/unfold"; simulate = ms "analyze/simulate";
              backtrack = ms "analyze/backtrack"; render } ) )
    (* a model the algorithm does not apply to (no cycles, dead events)
       is not a benchmark failure — keep it in the snapshot as
       not_applicable so its absence from the tables is
       self-explaining *)
    | exception Cycle_time.Not_analyzable msg -> Error (`Not_applicable msg))

(* the first run's analysis and every iteration's timings.  A model
   that fails once would fail every time: stop at the first error,
   keeping the iterations that ran *)
let iterate ~iterations ~jobs file =
  let rec go i acc =
    if i >= iterations then List.rev acc
    else match one_iter ~jobs file with Error _ -> List.rev acc | Ok (_, it) -> go (i + 1) (it :: acc)
  in
  Result.map (fun (a, it) -> (a, go 1 [ it ])) (one_iter ~jobs file)

let level jobs iters =
  { jobs; simulate_ms = mean (fun (_, p) -> p.simulate) iters; total_ms = mean fst iters }

(* the primary pass (jobs = 1) of every model first, then the scaling
   pass: every analyzable model again at the other levels *)
let bench_models ~iterations ~levels files =
  let primary = List.map (fun file -> (file, iterate ~iterations ~jobs:1 file)) files in
  List.map
    (fun (file, outcome) ->
      let outcome =
        Result.map
          (fun ((name, g, report), iters) ->
            let scaling =
              List.filter_map
                (fun jobs ->
                  if jobs = 1 then Some (level 1 iters)
                  else
                    Result.to_option
                      (Result.map (fun (_, it) -> level jobs it) (iterate ~iterations ~jobs file)))
                levels
            in
            let phase sel = mean (fun (_, p) -> sel p) iters in
            {
              name;
              events = Signal_graph.event_count g;
              arcs = Signal_graph.arc_count g;
              border = List.length report.Cycle_time.border;
              cycle_time = report.Cycle_time.cycle_time;
              total_mean_ms = mean fst iters;
              total_min_ms = List.fold_left (fun m (t, _) -> Float.min m t) infinity iters;
              phases =
                { load = phase (fun p -> p.load); unfold = phase (fun p -> p.unfold);
                  simulate = phase (fun p -> p.simulate); backtrack = phase (fun p -> p.backtrack);
                  render = phase (fun p -> p.render) };
              scaling;
            })
          outcome
      in
      { file; outcome })
    primary

(* ------------------------------------------------------------------ *)
(* What-if workloads                                                   *)

(* a prepared gen-dense base, every scenario analysed cold and then
   re-analysed warm by the daemon's own sweep loop.  Byte-identity is
   a hard check: a snapshot with diverging reports is worthless *)
let run_whatif ~what g scenarios =
  let base, prepare_ms = wall (fun () -> Whatif.prepare g) in
  let periods = Whatif.periods base in
  let cold, cold_ms =
    wall (fun () ->
        Array.map
          (fun cs ->
            let g' = Whatif.edited_graph_changes base cs in
            (g', Cycle_time.analyze ~periods g'))
          scenarios)
  in
  Metrics.reset ();
  let warm, warm_ms = wall (fun () -> Whatif.sweep_changes ~jobs:1 base scenarios) in
  let render g' r = Json.to_string (Tsg_io.Json_report.analysis_obj g' r) in
  let failure i ((g', c), (w, _)) =
    match w with
    | Error msg -> Some (Printf.sprintf "%s scenario %d failed: %s" what i msg)
    | Ok (r, _) when render g' c <> render g' r ->
      Some (what ^ " warm reports differ from cold reports")
    | Ok _ -> None
  in
  match Array.find_mapi failure (Array.combine cold warm) with
  | Some msg -> Error msg
  | None ->
    let stats = Array.map (fun (w, _) -> snd (Result.get_ok w)) warm in
    let count f = Array.fold_left (fun n st -> n + f st) 0 stats in
    Ok
      {
        scenarios = Array.length scenarios;
        prepare_ms;
        cold_ms;
        warm_ms;
        reused = count (fun st -> st.Whatif.reused);
        resimulated = count (fun st -> st.Whatif.resimulated);
        warm_paths = count (fun st -> if st.Whatif.path = Whatif.Warm then 1 else 0);
        spliced = Metrics.count "whatif/instances_spliced";
        dropped = Metrics.count "whatif/instances_dropped";
      }

(* 64 single-arc delay edits, spread across the arc ids, alternating
   signs, clamped so no delay goes negative — deterministic, so
   snapshots stay comparable *)
let delay_scenarios g =
  let arcs = Signal_graph.arc_count g in
  Array.init 64 (fun i ->
      let arc = i * 997 mod arcs in
      let nominal = (Signal_graph.arc g arc).Signal_graph.delay in
      let magnitude = 0.5 +. (float_of_int (i mod 7) /. 4.) in
      let delta = if i land 1 = 0 then magnitude else Float.max (-.nominal) (-.magnitude) in
      [ Whatif.Delay { arc; delta = (if delta = 0. then magnitude else delta) } ])

(* 48 arc-level edits: chord removals, forward chord insertions, and
   mixed structural+delay scenarios.  Every scenario removes or adds
   only unmarked chords, so the border never moves and the whole sweep
   exercises the warm structural path *)
let structural_scenarios g =
  let events = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let chords =
    Array.of_list
      (List.filter
         (fun i -> not arcs.(i).Signal_graph.marked)
         (List.init (Array.length arcs - events) (fun i -> events + i)))
  in
  let chord k = chords.(k * 131 mod Array.length chords) in
  let add k =
    (* forward, unmarked: src in the lower half of the ring, dst in the
       upper — can never close a token-free cycle and never touches
       the border *)
    let src = k * 13 mod (events / 2) in
    let dst = (events / 2) + (k * 29 mod (events / 2)) in
    Whatif.Add_arc { src; dst; delay = 1.0 +. float_of_int (k mod 5); marked = false }
  in
  Array.init 48 (fun i ->
      match i mod 3 with
      | 0 -> [ Whatif.Remove_arc (chord i) ]
      | 1 -> [ add i ]
      | _ ->
        [
          Whatif.Remove_arc (chord i);
          add (i + 7);
          Whatif.Delay { arc = i mod events; delta = 0.5 +. float_of_int (i mod 3) };
        ])

(* ------------------------------------------------------------------ *)

(* the composite workloads, selected by name like a model *)
let workloads = [ "whatif_sweep"; "whatif_structural" ]

(* [n] selects [name] when it is its path, basename or basename
   without extension *)
let selects name n =
  let base = Filename.basename name in
  n = name || n = base || n = Filename.remove_extension base

let unknown ~only files =
  List.filter (fun n -> not (List.exists (fun name -> selects name n) (files @ workloads))) only

let parse_only value files =
  match String.split_on_char ',' value |> List.map String.trim |> List.filter (( <> ) "") with
  | [] -> Error (Printf.sprintf "--only %S names nothing" value)
  | names -> (
    match unknown ~only:names files with
    | [] -> Ok names
    | bad -> Error ("--only names no model or workload: " ^ String.concat ", " bad))

let run ~iterations ?only files =
  let selected name = Option.fold ~none:true ~some:(List.exists (selects name)) only in
  let iterations = max 1 iterations in
  let jobs_levels = List.sort_uniq compare [ 1; 2; 4; Tsg_engine.Pool.recommended () ] in
  let benchmarks = bench_models ~iterations ~levels:jobs_levels (List.filter selected files) in
  let whatif name what scenarios =
    if not (selected name) then Ok None
    else
      let g = Option.get (Service.builtin "gen-dense") in
      Result.map Option.some (run_whatif ~what g (scenarios g))
  in
  Result.bind (whatif "whatif_sweep" "what-if sweep" delay_scenarios) @@ fun whatif_sweep ->
  Result.bind (whatif "whatif_structural" "structural" structural_scenarios)
  @@ fun whatif_structural ->
  let tm = Unix.gmtime (Unix.time ()) in
  Ok
    {
      date =
        Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
          tm.Unix.tm_mday;
      iterations;
      cores = Tsg_engine.Pool.recommended ();
      jobs_levels;
      benchmarks;
      whatif_sweep;
      whatif_structural;
    }

(* ------------------------------------------------------------------ *)
(* The tsa-bench/9 document                                            *)

let to_json s =
  let open Json in
  let skipped = Obj [ ("status", String "skipped") ] in
  let multi_core = String (if s.cores <= 1 then "single_core" else "ok") in
  let entry { file; outcome } =
    match outcome with
    | Error (`Error msg) ->
      Obj [ ("file", String file); ("status", String "error"); ("error", String msg) ]
    | Error (`Not_applicable msg) ->
      Obj [ ("file", String file); ("status", String "not_applicable"); ("reason", String msg) ]
    | Ok m ->
      let p = m.phases in
      let level l =
        Obj [ ("jobs", Int l.jobs); ("simulate_ms", Float l.simulate_ms); ("total_ms", Float l.total_ms) ]
      in
      Obj
        [
          ("file", String file); ("status", String "ok"); ("model", String m.name);
          ("events", Int m.events); ("arcs", Int m.arcs); ("border", Int m.border);
          ("cycle_time", Float m.cycle_time);
          ("total_ms", Obj [ ("mean", Float m.total_mean_ms); ("min", Float m.total_min_ms) ]);
          ( "phases_ms",
            Obj [ ("load", Float p.load); ("unfold", Float p.unfold);
                  ("simulate", Float p.simulate); ("backtrack", Float p.backtrack);
                  ("render", Float p.render) ] );
          ("jobs_scaling", List (List.map level m.scaling));
        ]
  in
  (* the structural speedup means little on one core: CI gates it
     softly under single_core *)
  let whatif ~status counters = function
    | None -> skipped
    | Some w ->
      let warm_total = w.prepare_ms +. w.warm_ms in
      Obj
        ([ ("status", status); ("model", String "gen-dense"); ("scenarios", Int w.scenarios);
           ("jobs", Int 1); ("prepare_ms", Float w.prepare_ms); ("cold_total_ms", Float w.cold_ms);
           ("warm_reanalyze_ms", Float w.warm_ms); ("warm_total_ms", Float warm_total);
           ("speedup", Float (w.cold_ms /. warm_total)) ]
        @ List.map (fun (k, n) -> (k, Int n)) (counters w)
        @ [ ("byte_identical", Bool true) ])
  in
  to_string
    (Obj
       [
         ("schema", String "tsa-bench/9"); ("date", String s.date);
         ("iterations", Int s.iterations); ("cores", Int s.cores);
         ("jobs_levels", List (List.map (fun j -> Int j) s.jobs_levels));
         ("benchmarks", List (List.map entry s.benchmarks));
         ( "whatif_sweep",
           whatif ~status:(String "ok")
             (fun w -> [ ("reused", w.reused); ("resimulated", w.resimulated) ])
             s.whatif_sweep );
         ( "whatif_structural",
           whatif ~status:multi_core
             (fun w ->
               [ ("warm_paths", w.warm_paths); ("instances_spliced", w.spliced);
                 ("instances_dropped", w.dropped) ])
             s.whatif_structural );
       ])
