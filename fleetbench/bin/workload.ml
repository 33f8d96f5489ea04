(* The three workloads' inputs: seeded model files, request lines and
   the oracle answers they are checked against.  Everything here is a
   pure function of the seed; the fleet only ever sees the files
   written under the work directory and the request lines. *)

open Tsg
module Gen = Tsg_circuit.Generators

type model = {
  name : string;
  path : string;  (** the file the fleet reads *)
  text : string;
  graph : Signal_graph.t;  (** as parsed back from [text] *)
  digest : string;  (** the routing key *)
  cycle_time : float;  (** the oracle: Howard's policy iteration *)
}

type kind = Delay | Add | Remove | Mark

type scenario = {
  change : Whatif.change;
  wire : string;  (** the edit object as sent *)
  expected : float;  (** Howard on [Whatif.edited_graph_changes] *)
}

type base = {
  model : model;
  prepared : Whatif.t;
  pool : scenario array;  (** validated scenarios, grouped by kind *)
  prepare_ms : float;
}

type origin = Model of model | Sweep of base * scenario array

type request = {
  origin : origin;  (** what the line asks, for the in-process replay *)
  line : string;
  key : string;  (** the model digest, as the proxy routes it *)
  expected : float array;  (** one cycle time per report in the reply *)
  group : int;
      (** requests of one group must be answered with identical bytes;
          [-1] where no such law applies *)
}

type t = {
  models : model array;  (** every model file written *)
  warmup : request array;
      (** sent through the proxy before timing, by both clients when
          [affine], else one at a time in order *)
  prime : request list;  (** sent directly to every replica before timing *)
  requests : int -> request option;
      (** the timed phase's [i]-th request; [None] past a finite pool *)
  bases : base array;
  cache_size : int option;  (** the replicas' [--cache-size], if not default *)
  balance : (string * float) list list;
      (** groups of (routing key, cost weight), each of which should
          split evenly between the two replicas (see {!Fleet.start}) *)
  affine : bool;
      (** each client sends only the requests homed on its own replica
          (for few, heavy requests); otherwise both clients share the
          stream *)
}

let golden = 0.6180339887498949
let frac x = x -. Float.of_int (truncate x)
let rng seed i = Random.State.make [| seed; i |]

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let analyze_line path = Printf.sprintf {|{"op":"analyze","path":"%s"}|} (String.escaped path)

(* a shipped model: parsed from the text the fleet will read *)
let model_of_text ~dir ~file text =
  let path = Filename.concat dir file in
  write_file path text;
  match Tsg_io.Loader.of_string ~name:file text with
  | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  | Ok m ->
    let g = m.Tsg_io.Loader.graph in
    {
      name = m.Tsg_io.Loader.name;
      path;
      text;
      graph = g;
      digest = Signal_graph.digest g;
      cycle_time = Tsg_baselines.Howard.cycle_time g;
    }

let model_of_graph ~dir ~name g =
  let text = Tsg_io.Stg_format.to_string ~model:name g in
  let path = Filename.concat dir (name ^ ".g") in
  write_file path text;
  {
    name;
    path;
    text;
    graph = g;
    digest = Signal_graph.digest g;
    cycle_time = Tsg_baselines.Howard.cycle_time g;
  }

(* input generation and the oracles are independent per model: split
   them over two domains to keep set-up short *)
let par_init n f =
  let results = Array.make n None in
  let work parity =
    for i = 0 to n - 1 do
      if i land 1 = parity then results.(i) <- Some (f i)
    done
  in
  let helper = Domain.spawn (fun () -> work 1) in
  (match work 0 with () -> Domain.join helper | exception e -> Domain.join helper; raise e);
  Array.map Option.get results

let analyze_request ?(group = -1) m =
  {
    origin = Model m;
    line = analyze_line m.path;
    key = m.digest;
    expected = [| m.cycle_time |];
    group;
  }

(* ------------------------------------------------------------------ *)
(* cold_analyze: every request a distinct segmented model, 1.5k-2k
   events, 20-28 border events.  Sizes follow a fixed low-discrepancy
   sequence so every seed draws the same size mix; the seed picks the
   structure and delays. *)

let cold_warmup = 16

let cold ~dir ~seed ~pool =
  (* warm-up models are the smallest size: they only calibrate the
     proxy's hedge delay and warm the replicas *)
  let make i =
    let events, tokens =
      if i < cold_warmup then (1000, 16)
      else (1500 + truncate (frac (float_of_int i *. golden) *. 500.), 20 + (i * 5 mod 9))
    in
    let g =
      Gen.segmented_live_tsg ~seed:(Hashtbl.hash (seed, i)) ~events ~tokens
        ~extra_arcs:(2 * events) ()
    in
    model_of_graph ~dir ~name:(Printf.sprintf "cold_s%d_%d" seed i) g
  in
  let models = par_init (pool + cold_warmup) make in
  let timed = Array.sub models cold_warmup pool in
  {
    models;
    warmup = Array.map analyze_request (Array.sub models 0 cold_warmup);
    prime = [];
    requests = (fun i -> if i < pool then Some (analyze_request timed.(i)) else None);
    bases = [||];
    cache_size = None;
    balance = [];
    affine = true;
  }

(* ------------------------------------------------------------------ *)
(* hot_serve: uniform analyze requests over a working set of small and
   medium models, every one analysed once in warm-up.  Each replica's
   memory cache holds about half of its share, so replies split between
   memory hits (re-rendered) and disk hits (stored bytes). *)

(* sizes are fixed; the seed picks delays and random structure, so
   every seed serves the same mix of model sizes *)
let hot_generated seed =
  let r = rng seed 1 in
  let int lo hi = lo + Random.State.int r (hi - lo + 1) in
  List.concat
    [
      List.init 10 (fun i ->
          ( Printf.sprintf "hot_ring%d" i,
            Gen.ring_tsg ~delay:(float_of_int (int 1 5)) ~events:(6 + (6 * i))
              ~tokens:(1 + (i mod 4)) () ));
      List.init 10 (fun i ->
          ( Printf.sprintf "hot_forkjoin%d" i,
            Gen.fork_join_tsg ~delay:(float_of_int (int 1 3))
              ~branches:(List.init (2 + (i mod 4)) (fun b -> 1 + ((i + (3 * b)) mod 12)))
              () ));
      List.init 10 (fun i ->
          let events = 8 + (3 * i) in
          ( Printf.sprintf "hot_random%d" i,
            Gen.random_live_tsg ~seed:(int 0 1_000_000) ~events ~extra_arcs:(2 * events) () ));
      List.init 10 (fun i ->
          let events = 100 + (33 * i) in
          ( Printf.sprintf "hot_segmented%d" i,
            Gen.segmented_live_tsg ~seed:(int 0 1_000_000) ~events ~tokens:(4 + (i mod 5))
              ~extra_arcs:(2 * events) () ));
    ]

let analysable g =
  match Cycle_time.cycle_time g with
  | _ -> true
  | exception Cycle_time.Not_analyzable _ -> false

let hot ~dir ~seed ~benchmarks =
  let shipped =
    (try Sys.readdir benchmarks with Sys_error _ -> [||])
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
    |> List.filter_map (fun f ->
           let text = In_channel.with_open_bin (Filename.concat benchmarks f) In_channel.input_all in
           match Tsg_io.Loader.of_string ~name:f text with
           | Ok m when analysable m.Tsg_io.Loader.graph -> Some (model_of_text ~dir ~file:f text)
           | _ -> None)
  in
  let generated =
    List.map (fun (name, g) -> model_of_graph ~dir ~name g) (hot_generated seed)
  in
  let models = Array.of_list (shipped @ generated) in
  let n = Array.length models in
  let requests = Array.mapi (fun i m -> analyze_request ~group:i m) models in
  let draws = rng seed 2 in
  let order = Array.init 200_000 (fun _ -> Random.State.int draws n) in
  (* warm-up touches every model once, in a seeded order; each replica
     keeps the last [cache_size] of its share in memory *)
  let warmup = Array.copy requests in
  for i = n - 1 downto 1 do
    let j = Random.State.int draws (i + 1) in
    let t = warmup.(i) in
    warmup.(i) <- warmup.(j);
    warmup.(j) <- t
  done;
  {
    models;
    warmup;
    prime = [];
    requests = (fun i -> Some requests.(order.(i mod Array.length order)));
    bases = [||];
    (* half of each replica's share of the working set *)
    cache_size = Some (max 1 ((n + 3) / 4));
    (* even counts keep the memory/disk split at half; parsing, paid
       twice per request, grows with the file *)
    balance =
      [
        Array.to_list (Array.map (fun m -> (m.digest, 1.)) models);
        Array.to_list (Array.map (fun m -> (m.digest, float_of_int (String.length m.text))) models);
      ];
    affine = false;
  }

(* ------------------------------------------------------------------ *)
(* sweep_serve: sweeps of [sweep_scenarios] scenarios, one of each edit
   kind, against a few prepared bases: dense random graphs (b close to
   n, reports of hundreds of KB) and 2k-event segmented graphs.  Six
   bases stay within the replicas' prepared-base LRU (8 entries), so
   Whatif.prepare runs only in warm-up. *)

let sweep_scenarios = 4
let per_kind = 4
let kinds = [| Delay; Add; Remove; Mark |]

let change_wire = function
  | Whatif.Delay { arc; delta } -> Printf.sprintf {|{"arc":%d,"delta":%g}|} arc delta
  | Whatif.Add_arc { src; dst; delay; marked } ->
    Printf.sprintf {|{"op":"add","src":%d,"dst":%d,"delay":%g,"marked":%b}|} src dst delay
      marked
  | Whatif.Remove_arc arc -> Printf.sprintf {|{"op":"remove","arc":%d}|} arc
  | Whatif.Set_marked { arc; marked } ->
    Printf.sprintf {|{"op":"mark","arc":%d,"marked":%b}|} arc marked

(* candidates keep the border set, so the fleet repairs them warm
   instead of falling back to a cold re-analysis *)
let candidate r g border kind =
  let n = Signal_graph.event_count g and m = Signal_graph.arc_count g in
  let arcs = Signal_graph.arcs g in
  let pick_arc p =
    let ids = List.filter (fun a -> p arcs.(a)) (List.init m Fun.id) in
    match ids with [] -> None | _ -> Some (List.nth ids (Random.State.int r (List.length ids)))
  in
  let unmarked (a : Signal_graph.arc) = not a.marked in
  match kind with
  | Delay ->
    Some
      (Whatif.Delay
         { arc = Random.State.int r m; delta = 0.5 *. float_of_int (1 + Random.State.int r 6) })
  | Add ->
    let dst = List.nth border (Random.State.int r (List.length border)) in
    Some
      (Whatif.Add_arc
         {
           src = Random.State.int r n;
           dst;
           delay = float_of_int (Random.State.int r 11);
           marked = true;
         })
  | Remove -> Option.map (fun a -> Whatif.Remove_arc a) (pick_arc unmarked)
  | Mark ->
    Option.map
      (fun a -> Whatif.Set_marked { arc = a; marked = true })
      (pick_arc (fun a -> unmarked a && List.mem a.Signal_graph.arc_dst border))

let scenario_of prepared border change =
  match Whatif.edited_graph_changes prepared [ change ] with
  | g' when Cut_set.border g' = border -> (
    match Tsg_baselines.Howard.cycle_time g' with
    | ct when Float.is_finite ct -> Some ct
    | _ -> None
    | exception _ -> None)
  | _ -> None
  | exception (Invalid_argument _ | Cycle_time.Not_analyzable _) -> None

let make_pool r prepared =
  let g = Whatif.signal_graph prepared in
  let border = Whatif.border prepared in
  let rec draw kind tries =
    if tries = 0 then None
    else
      match candidate r g border kind with
      | None -> None
      | Some change -> (
        match scenario_of prepared border change with
        | Some expected -> Some { change; wire = change_wire change; expected }
        | None -> draw kind (tries - 1))
  in
  (* a kind with no border-preserving candidate on this base (a mark
     on a segmented base) is served as a delay edit *)
  Array.concat
    (Array.to_list
       (Array.map
          (fun kind ->
            Array.init per_kind (fun _ ->
                match draw kind 50 with
                | Some s -> s
                | None -> (
                  match draw Delay 50 with
                  | Some s -> s
                  | None -> failwith "no valid delay edit")))
          kinds))

let sweep ~dir ~seed =
  let specs =
    List.init 4 (fun i ->
        ( Printf.sprintf "sweep_dense%d" i,
          fun () ->
            Gen.random_live_tsg ~seed:(Hashtbl.hash (seed, i)) ~events:100 ~extra_arcs:200 () ))
    @ List.init 2 (fun i ->
          ( Printf.sprintf "sweep_segmented%d" i,
            fun () ->
              Gen.segmented_live_tsg ~seed:(Hashtbl.hash (seed, 10 + i)) ~events:2000
                ~tokens:24 ~extra_arcs:4000 () ))
  in
  let bases =
    par_init (List.length specs) (fun i ->
        let name, gen = List.nth specs i in
        let model = model_of_graph ~dir ~name (gen ()) in
        let t0 = Unix.gettimeofday () in
        let prepared = Whatif.prepare model.graph in
        let prepare_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        { model; prepared; pool = make_pool (rng seed (100 + i)) prepared; prepare_ms })
  in
  let sweep_request b scenarios =
    {
      origin = Sweep (b, scenarios);
      line =
        Printf.sprintf {|{"op":"sweep","path":"%s","deltas":[%s]}|}
          (String.escaped b.model.path)
          (String.concat "," (Array.to_list (Array.map (fun (s : scenario) -> s.wire) scenarios)));
      key = b.model.digest;
      expected = Array.map (fun (s : scenario) -> s.expected) scenarios;
      group = -1;
    }
  in
  (* bases in rotation, scenarios drawn at random *)
  let request i =
    let r = rng seed (1000 + i) in
    let n = Array.length bases in
    let b = bases.(((i mod n) + n) mod n) in
    sweep_request b
      (Array.init sweep_scenarios (fun k ->
           b.pool.(((k mod Array.length kinds) * per_kind) + Random.State.int r per_kind)))
  in
  {
    models = Array.map (fun b -> b.model) bases;
    warmup = Array.init 16 (fun i -> request (-1 - i));
    prime = Array.to_list (Array.map (fun b -> sweep_request b [| b.pool.(0) |]) bases);
    requests = (fun i -> Some (request i));
    bases;
    cache_size = None;
    balance =
      (let family prefix =
         Array.to_list bases
         |> List.filter (fun b -> String.starts_with ~prefix b.model.name)
         |> List.map (fun b ->
                (* a sweep's cost grows with the base's unfolding *)
                ( b.model.digest,
                  float_of_int
                    (Signal_graph.event_count b.model.graph
                    * (1 + List.length (Whatif.border b.prepared))) ))
       in
       [ family "sweep_dense"; family "sweep_segmented" ]);
    affine = true;
  }
