(* fleetbench: the served-path benchmark.

   One workload per invocation.  Set-up generates the seeded inputs and
   their oracle answers, starts a fresh fleet (two `tsa serve --socket`
   replicas sharing one disk-cache directory, behind one `tsa proxy`)
   and warms it; set-up runs several times and its median is reported.
   The timed phase is a closed loop of two client threads, each sending
   its next request through the proxy only after the previous reply
   arrived.  Every reply is checked; any mismatch fails the run.

   --trace 0 prints the end-to-end metrics; --trace 1 is the separate
   traced run: the same timed phase with client spans, the fleet's own
   counters diffed across it, a three-way hop comparison, and an
   in-process replay of the inputs through each layer's functions. *)

module Server = Tsg_engine.Server
module J = Tsg_io.Json
module P = Tsg_engine.Protocol
module W = Workload
open Fleetbench

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("fleetbench: " ^ s)) fmt

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("fleetbench: " ^ s);
      exit 2)
    fmt

let workloads = [ "cold_analyze"; "hot_serve"; "sweep_serve" ]

(* ------------------------------------------------------------------ *)
(* answer checking *)

let mismatch_lock = Mutex.create ()
let mismatch_count = ref 0
let mismatch_notes = ref []

let mismatch msg =
  Mutex.protect mismatch_lock (fun () ->
      incr mismatch_count;
      if !mismatch_count <= 5 then mismatch_notes := msg :: !mismatch_notes)

(* the first ok answer of each byte-identity group is checked against
   the oracle; every later answer of the group must repeat its bytes *)
let verifier () =
  let first = Hashtbl.create 64 in
  let lock = Mutex.create () in
  fun (r : W.request) payload ->
    let against_oracle () =
      match Oracle.check_cycle_times ~expected:r.expected payload with
      | Ok () -> true
      | Error msg ->
        mismatch (Printf.sprintf "%s: %s" r.line msg);
        false
    in
    if r.group < 0 then ignore (against_oracle ())
    else
      match Mutex.protect lock (fun () -> Hashtbl.find_opt first r.group) with
      | Some f ->
        if not (Oracle.same_bytes ~first:f payload) then
          mismatch (Printf.sprintf "%s: reply bytes differ from the first reply" r.line)
      | None ->
        if against_oracle () then
          Mutex.protect lock (fun () ->
              if not (Hashtbl.mem first r.group) then Hashtbl.add first r.group payload)

(* ------------------------------------------------------------------ *)
(* the closed loop *)

let clients = 2

(* fresh fleets per run, each set up and then timed for its share of
   the timed phase *)
let rounds = 3

let send endpoint line =
  match Server.call ~timeout_s:60. ~endpoint [ line ] with
  | [ reply ] -> Ok reply
  | _ -> Error "connection closed without a reply"
  | exception Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
  | exception Failure msg -> Error msg

(* client [k] of [clients] threads draws its requests from [next k]
   until that runs dry or [until] passes; returns the wall time from
   the first send to the last reply *)
let drive ?spans ?(clients = clients) ~endpoint ~until ~next ~verify acct =
  let start = now () in
  let worker k =
    let next = next k in
    let rec go () =
      if now () < until then
        match next () with
        | None -> ()
        | Some (r : W.request) ->
          let t0 = now () in
          let reply = send endpoint r.line in
          let t1 = now () in
          Option.iter (fun s -> Spans.add s "client.request" ~start_s:t0 ~stop_s:t1) spans;
          (match Result.bind reply Accounting.classify with
          | Ok payload ->
            Accounting.answered acct ((t1 -. t0) *. 1000.);
            verify r payload
          | Error msg -> Accounting.failed acct msg);
          go ()
    in
    go ()
  in
  List.iter Thread.join (List.init clients (Thread.create worker));
  now () -. start

(* every client takes the next request of one stream *)
let shared ?(sent = ignore) stream =
  let counter = Atomic.make 0 in
  fun _client () ->
    let r = stream (Atomic.fetch_and_add counter 1) in
    Option.iter sent r;
    r

let of_array a i = if i < Array.length a then Some a.(i) else None

(* For an affine workload, client [k] sends only the requests whose key
   is homed on replica [k], taken in stream order, so each replica
   serves one closed-loop client: the load is even however the keys
   happen to hash, and a run's throughput does not depend on its
   ports.  Otherwise both clients share the stream.  [sent] sees every
   request handed out. *)
let client_streams ~home ~sent (wl : W.t) =
  if not wl.W.affine then shared ~sent wl.W.requests
  else
    let cursors = Array.make clients 0 in
    fun k ->
      let rec next skipped =
        if skipped > 100_000 then None
        else
          match wl.W.requests cursors.(k) with
          | None -> None
          | Some r ->
            cursors.(k) <- cursors.(k) + 1;
            if home r.W.key = k then (
              sent r;
              Some r)
            else next (skipped + 1)
      in
      fun () -> next 0

(* ------------------------------------------------------------------ *)
(* set-up *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755)

(* a fresh fleet per round lets every round reuse the same cold
   models.  Each client only sends the models homed on its replica,
   about half the pool: enough that neither runs dry on a 2-core box
   (about 4 requests/s per client); the round reports it if one does. *)
let cold_pool slice = (10 * int_of_float (Float.ceil slice)) + 20

let inputs ~name ~dir ~seed ~slice ~benchmarks =
  let models = Filename.concat dir "models" in
  mkdir_p models;
  match name with
  | "cold_analyze" -> W.cold ~dir:models ~seed ~pool:(cold_pool slice)
  | "hot_serve" -> W.hot ~dir:models ~seed ~benchmarks
  | _ -> W.sweep ~dir:models ~seed

let setup ~tsa ~name ~dir ~seed ~slice ~benchmarks ~verify =
  rm_rf dir;
  mkdir_p dir;
  let t0 = now () in
  let wl = inputs ~name ~dir ~seed ~slice ~benchmarks in
  let t1 = now () in
  let fleet = Fleet.start ~tsa ~dir ~cache_size:wl.W.cache_size ~balance:wl.W.balance in
  let t2 = now () in
  (* prime: requests every replica must have served before timing *)
  List.iter
    (fun (p : Fleet.proc) ->
      List.iter
        (fun (r : W.request) ->
          match Result.bind (send p.endpoint r.line) Accounting.classify with
          | Ok payload -> verify r payload
          | Error msg -> die "warm-up request to %s failed: %s" p.role msg)
        wl.W.prime)
    fleet.Fleet.replicas;
  let acct = Accounting.create () in
  let n = Array.length wl.W.warmup in
  ignore
    (drive ~endpoint:fleet.Fleet.proxy.endpoint ~until:Float.infinity
       ~clients:(if wl.W.affine then clients else 1)
       ~next:(shared (of_array wl.W.warmup)) ~verify acct);
  if Accounting.failures acct > 0 then
    die "warm-up: %d of %d requests failed (%s)" (Accounting.failures acct) n
      (String.concat "; " (Accounting.failure_reasons acct));
  log "set-up: inputs %.2f s, fleet start %.2f s, warm-up %.2f s" (t1 -. t0) (t2 -. t1)
    (now () -. t2);
  (wl, fleet)

(* ------------------------------------------------------------------ *)
(* the fleet's own counters *)

let num = function Some (P.Number f) -> f | _ -> 0.

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (P.member k j) (fun v -> path v rest)

let field j keys = num (path j keys)

let metric j name =
  match P.member "metrics" j with
  | Some (P.List entries) ->
    List.find_map
      (fun e ->
        match P.member "name" e with
        | Some (P.String n) when n = name ->
          Some (num (P.member "count" e), num (P.member "total_ms" e))
        | _ -> None)
      entries
    |> Option.value ~default:(0., 0.)
  | _ -> (0., 0.)

type snapshot = { proxy : P.json; replicas : P.json list; stats_calls : int }

(* A replica counts a request in server/requests on arrival and in
   server/request_ms once answered, so a stats reply includes itself in
   the first but not the second.  Across two snapshots, both counters
   therefore include exactly the stats requests sent to replicas after
   the first snapshot, up to and including the second. *)
let snapshot (fleet : Fleet.t) =
  let replicas = List.map Fleet.stats fleet.replicas in
  { proxy = Fleet.stats fleet.proxy; replicas; stats_calls = Fleet.replica_stats_calls () }

(* summed over replicas: after minus before *)
let replica_diff before after f =
  List.fold_left2 (fun acc b a -> acc +. (f a -. f b)) 0. before.replicas after.replicas

(* with nothing else in flight, the two counters differ by exactly the
   stats request reading them *)
let settle (fleet : Fleet.t) =
  let deadline = now () +. 15. in
  let rec go () =
    let busy =
      List.exists
        (fun p ->
          let j = Fleet.stats p in
          fst (metric j "server/requests") -. fst (metric j "server/request_ms") > 1.)
        fleet.replicas
    in
    if busy && now () < deadline then (
      Unix.sleepf 0.05;
      go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* context recorded with every result *)

let source_md5 () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if
               List.exists (Filename.check_suffix f) [ ".ml"; ".mli" ] || f = "dune"
             then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  match files "lib" @ files "bin" with
  | [] -> "unknown"
  | fs -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))

let context ~name ~seed ~seconds ~trace ~flags =
  J.Obj
    [
      ("workload", J.String name);
      ("seed", J.Int seed);
      ("seconds", J.Int seconds);
      ("rounds", J.Int rounds);
      ("trace", J.Int trace);
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("source_md5", J.String (source_md5 ()));
      ("clients", J.Int clients);
      ("fleet", J.List (List.map (fun f -> J.String f) flags));
    ]

(* ------------------------------------------------------------------ *)
(* reporting *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

let print_result ~ctx ~out ~correct ~attempted ~failed ~extra metrics =
  print_endline ("context " ^ J.to_string ctx);
  List.iter (fun (k, v) -> Printf.printf "%-30s %s\n" k v) extra;
  List.iter (fun x -> Printf.printf "%-30s %16.4f %s\n" x.m_name x.value x.unit_) metrics;
  let metrics_obj =
    J.Obj
      (List.map
         (fun x -> (x.m_name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ]))
         metrics)
  in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", metrics_obj);
      ]
  in
  let record =
    J.Obj
      [
        ("context", ctx);
        ("result", result);
        ("notes", J.Obj (List.map (fun (k, v) -> (k, J.String v)) extra));
      ]
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (J.to_string record ^ "\n"));
  print_endline (J.to_string result)

let mean_self spans name =
  match List.find_opt (fun (n, _, _) -> n = name) (Spans.self_times spans) with
  | Some (_, count, total) when count > 0 -> total /. float_of_int count
  | _ -> 0.

let median_or_zero = function [] -> 0. | xs -> Stats.median xs

(* ------------------------------------------------------------------ *)
(* the traced run's per-layer metrics *)

(* [k] requests spread evenly over [l] *)
let spread k l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n = 0 then [] else List.init (min k n) (fun i -> a.(i * n / min k n))

(* the hop comparison, on a live fleet: [sent] are that fleet's
   requests, so cold models are in its caches by now *)
let hop_comparison ~name ~spans ~verify ~router (fleet : Fleet.t) sent =
  let sample =
    match name with
    | "cold_analyze" -> spread 24 sent
    | "hot_serve" -> List.filteri (fun i _ -> i < 100) sent
    | _ -> List.filteri (fun i _ -> i < 6) sent
  in
  let check ((r : W.request), reply) =
    match Result.bind reply Accounting.classify with
    | Ok payload -> verify r payload
    | Error msg -> mismatch (Printf.sprintf "hop comparison: %s: %s" r.line msg)
  in
  Replay.hops spans ~router ~proxy:fleet.proxy.endpoint ~check sample

let per_layer ~name ~wl ~windows ~hops ~sent_requests ~acct ~elapsed ~spans ~disk_dir =
  let sent = Accounting.attempted acct in
  let completed = Accounting.completed acct in
  (* fleet counters: after minus before, summed over the rounds *)
  let diff f = List.fold_left (fun acc (b, a) -> acc +. f b a) 0. windows in
  let px keys = diff (fun b a -> field a.proxy ("proxy" :: keys) -. field b.proxy ("proxy" :: keys)) in
  let rep f = diff (fun b a -> replica_diff b a f) in
  let rep_count n = rep (fun j -> fst (metric j n)) in
  let rep_total n = rep (fun j -> snd (metric j n)) in
  let rep_field keys = rep (fun j -> field j keys) in
  let per n = match rep_count n with 0. -> 0. | c -> rep_total n /. c in
  let hedges = px [ "hedges" ] and retries = px [ "retries" ] in
  (* the stats requests this benchmark itself sent inside the windows
     (settle polls and the closing snapshots) are not traffic *)
  let own = diff (fun b a -> float_of_int (a.stats_calls - b.stats_calls)) in
  let replica_requests = rep_count "server/requests" -. own in
  let request_ms =
    let c = rep_count "server/request_ms" -. own in
    if c > 0. then rep_total "server/request_ms" /. c else 0.
  in
  let analyses = rep_count "analyze/unfold" in
  let hit_ratio tier =
    let h = rep_field [ tier; "hits" ] and mi = rep_field [ tier; "misses" ] in
    if h +. mi > 0. then h /. (h +. mi) else 0.
  in
  let hop_direct = List.map (fun (d, _, _) -> d) hops in
  let hop_router = List.map (fun (_, r, _) -> r) hops in
  let hop_proxy_gap = List.map (fun (_, r, p) -> p -. r) hops in
  (* in-process replay *)
  let tally = Replay.tally () in
  let disk = Tsg_engine.Disk_cache.create ~metrics_prefix:"replay-disk" ~dir:disk_dir () in
  (match name with
  | "cold_analyze" ->
    spread 8 sent_requests
    |> List.iter (function
         | { W.origin = W.Model mdl; _ } -> Replay.cold spans tally ~disk mdl
         | _ -> ())
  | "hot_serve" -> Replay.hot spans tally ~disk wl.W.models
  | _ ->
    List.filteri (fun i _ -> i < 8) sent_requests
    |> List.iter (function
         | { W.origin = W.Sweep (b, sc); _ } -> Replay.sweep spans tally b sc
         | _ -> ()));
  Tsg_engine.Disk_cache.close disk;
  List.iter (fun s -> mismatch ("replay " ^ s)) tally.mismatches;
  let self = mean_self spans in
  let make = self "unfolding.make" and warm = self "unfolding.warm_caches" in
  let simulate = self "timing_sim.simulate_many" in
  let backtrack = self "cycle_time.finish" in
  let lat = Accounting.latencies_ms acct in
  let fleet_unfold = per "analyze/unfold" in
  let gap_requests = replica_requests -. (float_of_int sent +. hedges +. retries) in
  (* disagreements between the replay and the fleet's counters are
     reported, never smoothed over *)
  if gap_requests <> 0. then
    log "DISAGREE: replicas counted %.0f requests; sent %d + hedges %.0f + retries %.0f"
      replica_requests sent hedges retries;
  (match name with
  | "cold_analyze" ->
    let extra = analyses -. float_of_int completed in
    if extra < 0. || extra > hedges +. retries then
      log "DISAGREE: replicas ran %.0f analyses for %d cold requests (%.0f hedges, %.0f retries)"
        analyses completed hedges retries;
    let ratio = if make +. warm > 0. then fleet_unfold /. (make +. warm) else 0. in
    if ratio < 0.5 || ratio > 2. then
      log "DISAGREE: replica unfold %.1f ms/analysis vs replay make+warm %.1f ms" fleet_unfold
        (make +. warm)
  | _ ->
    if analyses > 0. then log "DISAGREE: %.0f analyses ran during %s's timed phase" analyses name);
  [
    m "unfolding.make_ms" "ms" make;
    m "unfolding.warm_ms" "ms" warm;
    m "unfolding.instances" "count"
      (if tally.analyses = 0 then 0.
       else float_of_int tally.instances /. float_of_int tally.analyses);
    m "timing_sim.simulate_ms" "ms" simulate;
    m "cycle_time.backtrack_ms" "ms" backtrack;
    m "loader.parse_ms" "ms" (self "loader.parse");
    m "signal_graph.digest_ms" "ms" (self "signal_graph.digest");
    m "rpc.render_ms" "ms" (self "rpc.render");
    m "rpc.response_kb" "KiB"
      (if tally.responses = 0 then 0.
       else float_of_int tally.response_bytes /. 1024. /. float_of_int tally.responses);
    m "cache.hit_ratio" "ratio" (hit_ratio "cache");
    m "disk_cache.hit_ratio" "ratio" (hit_ratio "disk_cache");
    m "disk_cache.read_ms" "ms" (self "disk_cache.read");
    m "disk_cache.write_ms" "ms" (self "disk_cache.write");
    m "disk_cache.dropped" "count" (rep_field [ "disk_cache"; "dropped" ]);
    m "whatif.prepare_ms" "ms"
      (Stats.mean (Array.to_list (Array.map (fun b -> b.W.prepare_ms) wl.W.bases)));
    m "whatif.reanalyze_delay_ms" "ms" (self "whatif.reanalyze_delay");
    m "whatif.reanalyze_structural_ms" "ms" (self "whatif.reanalyze_structural");
    m "whatif.reused_ratio" "ratio" (Stats.ratio tally.reused (tally.reused + tally.resimulated));
    m "server.request_ms" "ms" request_ms;
    m "server.call_ms" "ms" (median_or_zero hop_direct);
    m "router.route_ms" "ms" (median_or_zero hop_router);
    m "proxy.hop_ms" "ms" (median_or_zero hop_proxy_gap);
    m "proxy.hedges" "count" hedges;
    m "proxy.hedge_win_ratio" "ratio"
      (if hedges > 0. then px [ "hedge_wins" ] /. hedges else 0.);
    m "proxy.retries" "count" retries;
    m "proxy.shed" "count" (px [ "shed" ]);
    m "fleet.analyses" "count" analyses;
    m "fleet.unfold_ms" "ms" fleet_unfold;
    m "fleet.simulate_ms" "ms" (per "analyze/simulate");
    m "fleet.backtrack_ms" "ms" (per "analyze/backtrack");
    m "check.replica_requests_gap" "count" gap_requests;
    m "traced.latency_p50_ms" "ms" (median_or_zero lat);
    m "traced.throughput_rps" "1/s" (float_of_int completed /. elapsed);
  ]

(* ------------------------------------------------------------------ *)

type round = {
  wl : W.t;
  flags : string list;
  setup_s : float;
  elapsed : float;  (** first send to last reply of the round's slice *)
  cpu_ms : float;  (** the fleet's CPU across the slice *)
  rss_mb : float;
  sent : W.request list;
  window : (snapshot * snapshot) option;  (** fleet counters around the slice *)
  hops : (float * float * float) list;
}

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminated run still reaps its fleet (Fleet registers at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let name = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let tsa = ref "_build/default/bin/tsa.exe" and work = ref ".fleetbench" in
  let benchmarks = ref "benchmarks" in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase, over all rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
      ("--tsa", Arg.Set_string tsa, "PATH the tsa executable");
      ("--work", Arg.Set_string work, "DIR work directory (models, caches, logs, results)");
      ("--benchmarks", Arg.Set_string benchmarks, "DIR shipped .g models for hot_serve");
    ]
    (fun a -> die "unexpected argument %s" a)
    "fleetbench --workload NAME --seed N --seconds S --trace 0|1";
  let name = !name and seed = !seed and seconds = !seconds and trace = !trace in
  if not (List.mem name workloads) then die "--workload must be one of %s" (String.concat ", " workloads);
  if seconds < 1 then die "--seconds must be at least 1";
  if trace <> 0 && trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists !tsa) then die "no tsa executable at %s" !tsa;
  let dir = Filename.concat !work name in
  (* One round: set up (timed: input generation, oracles, fleet spawn,
     warm-up), then a slice of the timed phase on that fleet.  Spreading
     the timed phase over fresh fleets averages out what one fleet's
     placement and scheduling happen to be.  Latencies, counts and CPU
     are pooled over the rounds; set-up time and peak memory are the
     median of the rounds'. *)
  let verify = verifier () in
  let acct = Accounting.create () in
  let spans = Spans.create () in
  let slice = float_of_int seconds /. float_of_int rounds in
  let round k =
    let t0 = now () in
    let wl, fleet = setup ~tsa:!tsa ~name ~dir ~seed ~slice ~benchmarks:!benchmarks ~verify in
    let setup_s = now () -. t0 in
    (* the proxy's own router is built from the same endpoint list, so
       this one agrees with it on every key's home *)
    let router =
      Tsg_engine.Router.create (List.map (fun p -> p.Fleet.endpoint) fleet.Fleet.replicas)
    in
    Fun.protect
      ~finally:(fun () ->
        Tsg_engine.Router.close router;
        Fleet.stop fleet)
    @@ fun () ->
    let sent_lock = Mutex.create () and sent_log = ref [] in
    let next =
      client_streams ~home:(Tsg_engine.Router.home router) wl ~sent:(fun r ->
          Mutex.protect sent_lock (fun () -> sent_log := r :: !sent_log))
    in
    let before = if trace = 1 then Some (snapshot fleet) else None in
    let cpu0 = Fleet.cpu_ms fleet in
    let elapsed =
      drive
        ?spans:(if trace = 1 then Some spans else None)
        ~endpoint:fleet.proxy.endpoint ~until:(now () +. slice) ~next ~verify acct
    in
    let cpu_ms = Fleet.cpu_ms fleet -. cpu0 in
    let rss_mb = Fleet.peak_rss_mb fleet in
    if elapsed < slice then log "round %d: the request stream ran dry after %.1f s" k elapsed;
    let sent = List.rev !sent_log in
    let window =
      Option.map
        (fun b ->
          settle fleet;
          (b, snapshot fleet))
        before
    in
    let hops =
      if trace = 1 && k = rounds then hop_comparison ~name ~spans ~verify ~router fleet sent
      else []
    in
    { wl; flags = fleet.flags; setup_s; elapsed; cpu_ms; rss_mb; sent; window; hops }
  in
  let results = List.init rounds (fun k -> round (k + 1)) in
  let last = List.nth results (rounds - 1) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. results in
  let setup_times = List.map (fun r -> r.setup_s) results in
  let elapsed = sum (fun r -> r.elapsed) and cpu_ms = sum (fun r -> r.cpu_ms) in
  let rss = Stats.median (List.map (fun r -> r.rss_mb) results) in
  let sent_requests = List.concat_map (fun r -> r.sent) results in
  let windows = List.filter_map (fun r -> r.window) results in
  let attempted = Accounting.attempted acct and failed = Accounting.failures acct in
  let completed = Accounting.completed acct in
  let lat = Accounting.latencies_ms acct in
  let n = List.length lat in
  let ctx = context ~name ~seed ~seconds ~trace ~flags:last.flags in
  let extra =
    [
      ("samples", string_of_int n);
      ( "p90_tail_samples",
        Printf.sprintf "%d%s" (Stats.beyond ~n 0.9)
          (if Stats.tail_supported ~n 0.9 then "" else " (fewer than 10: p90 is unsupported)") );
      ("error_rate", Printf.sprintf "%.6f ratio" (Accounting.error_rate acct));
      ("setup_s_samples", String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
    ]
    @ List.mapi
        (fun i r -> (Printf.sprintf "failure_%d" i, r))
        (Accounting.failure_reasons acct)
  in
  let metrics =
    if trace = 0 then
      [
        m "latency_p50_ms" "ms" (if n = 0 then 0. else Stats.percentile lat 0.5);
        m "latency_p90_ms" "ms" (if n = 0 then 0. else Stats.percentile lat 0.9);
        m "throughput_rps" "1/s" (float_of_int completed /. elapsed);
        m "cpu_ms_per_req" "ms" (if completed = 0 then 0. else cpu_ms /. float_of_int completed);
        m "peak_rss_mb" "MiB" rss;
        m "setup_s" "s" (Stats.median setup_times);
      ]
    else
      per_layer ~name ~wl:last.wl ~windows ~hops:last.hops ~sent_requests ~acct ~elapsed ~spans
        ~disk_dir:(Filename.concat dir "replay-cache")
  in
  if trace = 1 then
    Out_channel.with_open_bin
      (Filename.concat !work (Printf.sprintf "%s-s%d-spans.json" name seed))
      (fun oc -> output_string oc (Spans.to_chrome_json spans));
  let correct = !mismatch_count = 0 in
  let extra =
    extra
    @ [ ("mismatches", string_of_int !mismatch_count) ]
    @ List.mapi (fun i s -> (Printf.sprintf "mismatch_%d" i, s)) (List.rev !mismatch_notes)
  in
  print_result ~ctx ~correct ~attempted ~failed ~extra
    ~out:(Filename.concat !work (Printf.sprintf "%s-s%d-t%d.json" name seed trace))
    metrics;
  if not correct then exit 1
