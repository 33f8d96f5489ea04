(* The line-by-line native parser and the digraph-based validation,
   kept verbatim as a reference: split the text into line and word
   lists, parse every endpoint with [Event.of_string], validate with a
   cons-cell [Digraph] per rule ([Scc] for strong connectivity,
   [Topo.sort] for liveness) and read the arc-id lists off the arc
   table.  The one-pass parser and the array freeze in [Signal_graph]
   must agree with it on everything observable: events, classes, the
   arc table, [out_arc_ids]/[in_arc_ids], the canonical form and
   digest, and every error string.

   One deliberate change rides in the reference too: an [.events] line
   that gives an already-declared event another class is an error (it
   used to be dropped silently). *)

open Tsg
open Tsg_io
module SG = Signal_graph
module Digraph = Tsg_graph.Digraph

(* ------------------------------------------------------------------ *)
(* Reference validation and freeze (public graph modules only)         *)

type ref_graph = {
  events : Event.t array;
  classes : SG.event_class array;
  arc_table : SG.arc array;
  out_ids : int list array;
  in_ids : int list array;
}

let ref_validate events classes (arc_table : SG.arc array) =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let n = Array.length events in
  Array.iter
    (fun (a : SG.arc) ->
      let u = events.(a.arc_src) and v = events.(a.arc_dst) in
      if a.delay < 0. then err (SG.Negative_delay (u, v, a.delay));
      if a.marked && a.disengageable then err (SG.Marked_disengageable (u, v));
      if a.disengageable && classes.(a.arc_src) = SG.Repetitive then
        err (SG.Disengageable_from_repetitive (u, v));
      if classes.(a.arc_src) = SG.Repetitive && classes.(a.arc_dst) <> SG.Repetitive then
        err (SG.Repetitive_to_non_repetitive (u, v));
      if classes.(a.arc_dst) = SG.Initial then err (SG.Initial_event_with_in_arc v))
    arc_table;
  let rep = ref [] in
  for v = n - 1 downto 0 do
    if classes.(v) = SG.Repetitive then rep := v :: !rep
  done;
  let rep_list = !rep in
  let rep_count = List.length rep_list in
  if rep_count > 0 then begin
    let dense = Hashtbl.create rep_count in
    List.iteri (fun i v -> Hashtbl.add dense v i) rep_list;
    let sub = Digraph.create ~capacity:rep_count () in
    Digraph.add_vertices sub rep_count;
    Array.iter
      (fun (a : SG.arc) ->
        match (Hashtbl.find_opt dense a.arc_src, Hashtbl.find_opt dense a.arc_dst) with
        | Some s, Some d -> Digraph.add_arc sub ~src:s ~dst:d ()
        | _ -> ())
      arc_table;
    if not (Tsg_graph.Scc.is_strongly_connected sub) then
      err SG.Repetitive_part_not_strongly_connected
  end;
  let unmarked = Digraph.create ~capacity:(max n 1) () in
  Digraph.add_vertices unmarked n;
  Array.iter
    (fun (a : SG.arc) ->
      if not a.marked then Digraph.add_arc unmarked ~src:a.arc_src ~dst:a.arc_dst ())
    arc_table;
  (match Tsg_graph.Topo.sort unmarked with
  | Ok _ -> ()
  | Error on_cycle ->
    let witness =
      match on_cycle with
      | [] -> []
      | v :: _ ->
        let rec chase u seen =
          if List.exists (fun w -> w = u) seen then
            let rec cut = function
              | [] -> []
              | w :: rest -> if w = u then w :: rest else cut rest
            in
            cut (List.rev seen)
          else
            let next =
              List.find_opt
                (fun w -> List.exists (fun x -> x = w) on_cycle)
                (Digraph.succ unmarked u)
            in
            match next with None -> List.rev seen | Some w -> chase w (u :: seen)
        in
        chase v []
    in
    err (SG.Unmarked_cycle (List.map (fun v -> events.(v)) witness)));
  List.rev !errors

let ref_views n (arc_table : SG.arc array) =
  let out_ids = Array.make (max n 1) [] and in_ids = Array.make (max n 1) [] in
  Array.iteri
    (fun i (a : SG.arc) ->
      out_ids.(a.arc_src) <- i :: out_ids.(a.arc_src);
      in_ids.(a.arc_dst) <- i :: in_ids.(a.arc_dst))
    arc_table;
  Array.iteri (fun v ids -> out_ids.(v) <- List.rev ids) out_ids;
  Array.iteri (fun v ids -> in_ids.(v) <- List.rev ids) in_ids;
  (out_ids, in_ids)

let ref_canonical_form r =
  let class_tag = function SG.Initial -> "i" | SG.Non_repetitive -> "n" | SG.Repetitive -> "r" in
  let canonical_delay d = if d = 0. then "0" else Printf.sprintf "%h" d in
  let events =
    Array.to_list
      (Array.mapi
         (fun i ev -> Printf.sprintf "%s %s" (Event.to_string ev) (class_tag r.classes.(i)))
         r.events)
    |> List.sort compare
  in
  let arcs =
    Array.to_list
      (Array.map
         (fun (a : SG.arc) ->
           Printf.sprintf "%s %s %s%s%s"
             (Event.to_string r.events.(a.arc_src))
             (Event.to_string r.events.(a.arc_dst))
             (canonical_delay a.delay)
             (if a.marked then " *" else "")
             (if a.disengageable then " !" else ""))
         r.arc_table)
    |> List.sort compare
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "events\n";
  List.iter (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') events;
  Buffer.add_string buf "arcs\n";
  List.iter (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') arcs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reference parser (the old Stg_format.parse_checked)                 *)

let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment line =
  match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

let class_of_keyword = function
  | "initial" -> Some SG.Initial
  | "nonrep" -> Some SG.Non_repetitive
  | "rep" -> Some SG.Repetitive
  | _ -> None

let keyword_of_class = function
  | SG.Initial -> "initial"
  | SG.Non_repetitive -> "nonrep"
  | SG.Repetitive -> "rep"

let ref_parse_checked text =
  let lines = String.split_on_char '\n' text in
  let model = ref "unnamed" in
  let events : (Event.t * SG.event_class) list ref = ref [] in
  let arcs : (Event.t * Event.t * float * bool * bool) list ref = ref [] in
  let declared = Hashtbl.create 32 in
  let section = ref `Preamble in
  let ended = ref false in
  let declare ev cls =
    if not (Hashtbl.mem declared ev) then begin
      Hashtbl.add declared ev cls;
      events := (ev, cls) :: !events
    end
  in
  let exception Stop of string in
  try
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let line = String.trim (strip_comment raw) in
        if line <> "" && not !ended then begin
          let fail fmt =
            Fmt.kstr (fun m -> raise (Stop (Printf.sprintf "line %d: %s" lineno m))) fmt
          in
          let event_of s =
            match Event.of_string s with Ok ev -> ev | Error msg -> fail "%s" msg
          in
          (* the class-conflict rule *)
          let declare_explicit tok ev cls =
            match Hashtbl.find_opt declared ev with
            | Some known when known <> cls ->
              fail "event %s already declared as %s" tok (keyword_of_class known)
            | _ -> declare ev cls
          in
          match split_words line with
          | [ ".model"; name ] -> model := name
          | ".model" :: _ -> fail ".model takes one name"
          | [ ".events" ] -> section := `Events
          | [ ".graph" ] -> section := `Graph
          | [ ".end" ] -> ended := true
          | words -> (
            match !section with
            | `Preamble -> fail "expected .model, .events or .graph"
            | `Events -> (
              match words with
              | [ e ] -> declare_explicit e (event_of e) SG.Repetitive
              | [ e; cls ] -> (
                match class_of_keyword cls with
                | Some c -> declare_explicit e (event_of e) c
                | None -> fail "unknown event class %S" cls)
              | _ -> fail "event lines are: <event> [initial|nonrep|rep]")
            | `Graph -> (
              match words with
              | src :: dst :: delay :: flags ->
                let u = event_of src in
                let v = event_of dst in
                let d =
                  match float_of_string_opt delay with
                  | Some d -> (
                    match Validate.delay d with Ok d -> d | Error msg -> fail "%s" msg)
                  | None -> fail "invalid delay %S" delay
                in
                let marked = ref false and once = ref false in
                List.iter
                  (fun f ->
                    match f with
                    | "token" -> marked := true
                    | "once" -> once := true
                    | _ -> fail "unknown arc flag %S" f)
                  flags;
                declare u SG.Repetitive;
                declare v SG.Repetitive;
                arcs := (u, v, d, !marked, !once) :: !arcs
              | _ -> fail "arc lines are: <src> <dst> <delay> [token] [once]"))
        end)
      lines;
    (match Validate.counts ~events:(List.length !events) ~arcs:(List.length !arcs) with
    | Ok () -> ()
    | Error msg -> raise (Stop msg));
    let events_l = List.rev !events in
    let events = Array.of_list (List.map fst events_l) in
    let classes = Array.of_list (List.map snd events_l) in
    let index = Hashtbl.create 32 in
    Array.iteri (fun i ev -> Hashtbl.add index ev i) events;
    let arc_table =
      Array.of_list
        (List.rev_map
           (fun (u, v, delay, marked, once) ->
             let src = Hashtbl.find index u and dst = Hashtbl.find index v in
             let disengageable =
               once || (classes.(src) <> SG.Repetitive && classes.(dst) = SG.Repetitive)
             in
             { SG.arc_src = src; arc_dst = dst; delay; marked; disengageable })
           !arcs)
    in
    match ref_validate events classes arc_table with
    | [] ->
      let out_ids, in_ids = ref_views (Array.length events) arc_table in
      Ok (!model, { events; classes; arc_table; out_ids; in_ids })
    | errs -> Error (Fmt.str "invalid graph: %a" Fmt.(list ~sep:(any "; ") SG.pp_error) errs)
  with
  | Stop msg -> Error msg
  | Invalid_argument msg -> Error msg

let ref_parse text =
  match Validate.input_text text with Error msg -> Error msg | Ok () -> ref_parse_checked text

(* ------------------------------------------------------------------ *)
(* Agreement                                                           *)

(* [None] when the two parses agree on everything observable, else the
   first difference *)
let disagreement text =
  match (ref_parse text, Stg_format.parse text) with
  | Error want, Error got -> if want = got then None else Some (Printf.sprintf "error %S vs %S" want got)
  | Error want, Ok _ -> Some (Printf.sprintf "reference rejects (%s), parser accepts" want)
  | Ok _, Error got -> Some (Printf.sprintf "reference accepts, parser rejects (%s)" got)
  | Ok (model, r), Ok doc ->
    let g = doc.Stg_format.graph in
    let n = Array.length r.events in
    let checks =
      [
        ("model", model = doc.Stg_format.model);
        ("events", n = SG.event_count g && Array.for_all2 Event.equal r.events (SG.events_of g));
        ("classes", List.init n (fun i -> r.classes.(i) = SG.class_of g i) |> List.for_all Fun.id);
        ("arc table", r.arc_table = SG.arcs g);
        ( "out_arc_ids",
          List.init n (fun v -> r.out_ids.(v) = SG.out_arc_ids g v) |> List.for_all Fun.id );
        ( "in_arc_ids",
          List.init n (fun v -> r.in_ids.(v) = SG.in_arc_ids g v) |> List.for_all Fun.id );
        ("canonical form", ref_canonical_form r = SG.canonical_form g);
        ( "digest",
          Digest.to_hex (Digest.string (ref_canonical_form r)) = SG.digest g );
      ]
    in
    List.find_map (fun (what, ok) -> if ok then None else Some (what ^ " differ")) checks

let agrees name text =
  match disagreement text with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" name why

let benchmarks_dir = try Sys.getenv "BENCHMARKS" with Not_found -> "../benchmarks"

let test_benchmarks () =
  let files =
    Sys.readdir benchmarks_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
  in
  Alcotest.(check bool) "found the benchmark models" true (List.length files >= 8);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat benchmarks_dir f) In_channel.input_all in
      (* the astg dialect has its own parser; both go through the freeze *)
      if not (Loader.is_astg text) then agrees f text
      else
        match Loader.of_string text with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s: %s" f msg)
    files

let generated =
  let open Tsg_circuit in
  [
    ("segmented", Generators.segmented_live_tsg ~seed:3 ~events:400 ~tokens:6 ~extra_arcs:600 ());
    ("random-live", Generators.random_live_tsg ~seed:5 ~events:60 ~extra_arcs:120 ());
    ("ring", Generators.ring_tsg ~events:17 ~tokens:3 ());
    ("fork-join", Generators.fork_join_tsg ~branches:[ 3; 1; 4 ] ());
    ("muller", Circuit_library.muller_ring_tsg ~stages:6 ());
    ("fig1", Circuit_library.fig1_tsg ());
    ("stack", Circuit_library.async_stack_tsg ());
  ]

let test_generator_exports () =
  List.iter (fun (name, g) -> agrees name (Stg_format.to_string ~model:name g)) generated

(* names whose canonical order is the string order of Event.to_string,
   not Event.compare: "a+/10" sorts before "a+/2" as a string *)
let odd_names =
  {|.model odd
.events
a+/10 rep
a+/2 rep
a!+ rep
.graph
a+/2 a+/10 1
a+/10 a!+ 2
a!+ a+/2 3 token
a+/1 a+/2 1 token
a!+ a+ 0.5 token
.end
|}

let test_odd_names () =
  agrees "odd names" odd_names;
  (* "a! +" is two words: an event line with an unknown class *)
  agrees "odd names (bad class)" ".events\na+ rep\na! +\n";
  match Stg_format.parse odd_names with
  | Error msg -> Alcotest.failf "odd names should load: %s" msg
  | Ok doc ->
    let g = doc.Stg_format.graph in
    (* a+ and a+/1 are one event *)
    Alcotest.(check int) "four events" 4 (SG.event_count g);
    let cf = SG.canonical_form g in
    let at s =
      let n = String.length s in
      let rec go i = if String.sub cf i n = s then i else go (i + 1) in
      go 0
    in
    Alcotest.(check bool) "a+/10 sorts before a+/2" true (at "a+/10 r" < at "a+/2 r")

let test_class_conflicts () =
  let rejects name ~expect text =
    match Stg_format.parse text with
    | Ok _ -> Alcotest.failf "%s: should be rejected" name
    | Error msg -> Alcotest.(check string) name expect msg
  in
  rejects "implicit rep, then nonrep" ~expect:"line 5: event a+ already declared as rep"
    ".graph\na+ b+ 1\nb+ a+ 1 token\n.events\na+ nonrep\n";
  rejects "nonrep, then rep" ~expect:"line 3: event a+ already declared as nonrep"
    ".events\na+ nonrep\na+ rep\n";
  rejects "another spelling" ~expect:"line 3: event a+/1 already declared as initial"
    ".events\na+ initial\na+/1\n";
  (* the same class again stays accepted *)
  match Stg_format.parse ".events\na+ rep\na+\nb+ rep\n.graph\na+ b+ 1\nb+ a+ 1 token\n.events\nb+ rep\n" with
  | Ok doc -> Alcotest.(check int) "two events" 2 (SG.event_count doc.Stg_format.graph)
  | Error msg -> Alcotest.failf "re-declaring the same class: %s" msg

(* ------------------------------------------------------------------ *)
(* Mutated texts                                                       *)

let bases =
  List.map
    (fun (name, g) -> Stg_format.to_string ~model:name g)
    (List.filter (fun (name, _) -> name <> "segmented" && name <> "random-live") generated)
  @ [
      Stg_format.to_string
        (Tsg_circuit.Generators.random_live_tsg ~seed:9 ~events:8 ~extra_arcs:6 ());
      odd_names;
    ]

let mutate_line rng line =
  let words = Array.of_list (split_words line) in
  let n = Array.length words in
  let set k w = if k < n then words.(k) <- w in
  (match Random.State.int rng 7 with
  | 0 -> set 2 "-1"
  | 1 -> set 2 "nan"
  | 2 -> set 3 "tokn"
  | 3 -> set 1 "initial"
  | 4 -> set 1 "nonrep"
  | 5 -> if n > 3 then words.(3) <- "" (* drop the token: maybe a token-free cycle *)
  | _ -> set 0 "fresh+");
  String.concat " " (Array.to_list words)

let mutate seed text =
  let rng = Random.State.make [| seed |] in
  let lines = ref (Array.of_list (String.split_on_char '\n' text)) in
  for _ = 0 to Random.State.int rng 3 do
    let a = !lines in
    let n = Array.length a in
    let i = Random.State.int rng n and j = Random.State.int rng n in
    lines :=
      match Random.State.int rng 7 with
      | 0 -> Array.of_list (List.filteri (fun k _ -> k <> i) (Array.to_list a))
      | 1 -> Array.concat [ Array.sub a 0 i; [| a.(i) |]; Array.sub a i (n - i) ]
      | 2 ->
        let a = Array.copy a in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t;
        a
      | 3 ->
        (* an arc into e-, the initial event of fig1 *)
        Array.append a [| "a+ e- 1" |]
      | 4 ->
        (* a repetitive event nothing returns to *)
        Array.append a [| ".graph"; "lone+ e-/2 1 token" |]
      | 5 ->
        (* declare some event again, maybe with another class *)
        let tok = match split_words a.(i) with w :: _ -> w | [] -> "a+" in
        let cls = [| ""; " rep"; " nonrep"; " initial" |].(Random.State.int rng 4) in
        Array.append a [| ".events"; tok ^ cls |]
      | _ ->
        let a = Array.copy a in
        a.(i) <- mutate_line rng a.(i);
        a
  done;
  String.concat "\n" (Array.to_list !lines)

let prop_mutations =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"mutated texts parse as the reference parses"
       ~print:(fun (b, seed) -> mutate seed (List.nth bases b))
       QCheck2.Gen.(pair (int_range 0 (List.length bases - 1)) (int_range 0 1_000_000))
       (fun (b, seed) -> disagreement (mutate seed (List.nth bases b)) = None))

(* [with_arcs] runs the same freeze: random marking flips and arc
   removals must meet the reference validation, witness included *)
let prop_with_arcs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"with_arcs validates as the reference does"
       ~print:(fun (seed, _) -> string_of_int seed)
       QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 3 12))
       (fun (seed, events) ->
         let g = Tsg_circuit.Generators.random_live_tsg ~seed ~events ~extra_arcs:events () in
         let rng = Random.State.make [| seed |] in
         let table =
           SG.arcs g |> Array.to_list
           |> List.filter (fun _ -> Random.State.int rng 8 <> 0)
           |> List.map (fun (a : SG.arc) ->
                  if Random.State.int rng 3 = 0 then { a with marked = not a.marked } else a)
           |> Array.of_list
         in
         let events_arr = SG.events_of g in
         let classes = Array.init (SG.event_count g) (SG.class_of g) in
         match (ref_validate events_arr classes table, SG.with_arcs g table) with
         | [], Ok g' ->
           let out_ids, in_ids = ref_views (SG.event_count g) table in
           List.for_all
             (fun v -> out_ids.(v) = SG.out_arc_ids g' v && in_ids.(v) = SG.in_arc_ids g' v)
             (List.init (SG.event_count g) Fun.id)
         | want, Error got ->
           Fmt.str "%a" Fmt.(list SG.pp_error) want = Fmt.str "%a" Fmt.(list SG.pp_error) got
         | _ :: _, Ok _ -> false))

(* the canonical form over delays the text format cannot spell
   exactly (fractions, extreme exponents, [-0.]), parallel arcs that
   differ only in their flags, and names that are prefixes of others *)
let prop_canonical_form =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"canonical form renders as the reference does"
       ~print:(fun (seed, events) -> Printf.sprintf "seed %d, %d events" seed events)
       QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 2 15))
       (fun (seed, events) ->
         let rng = Random.State.make [| seed |] in
         let delay () =
           match Random.State.int rng 5 with
           | 0 -> float_of_int (Random.State.int rng 4)
           | 1 -> Random.State.float rng 10.
           | 2 -> ldexp (Random.State.float rng 1.) (Random.State.int rng 2000 - 1000)
           | 3 -> if Random.State.bool rng then 0. else -0.
           | _ -> float_of_int (Random.State.int rng 3) *. 0.1
         in
         let base = Tsg_circuit.Generators.random_live_tsg ~seed ~events ~extra_arcs:events () in
         let b = SG.builder () in
         Array.iteri (fun i ev -> SG.add_event b ev (SG.class_of base i)) (SG.events_of base);
         let chain = List.map Event.of_string_exn [ "z-"; "z-/2"; "z-/10"; "z-/1000" ] in
         List.iter (fun ev -> SG.add_event b ev SG.Non_repetitive) chain;
         Array.iter
           (fun (a : SG.arc) ->
             let u = SG.event base a.arc_src and v = SG.event base a.arc_dst in
             let d = delay () in
             SG.add_arc b ~marked:a.marked ~delay:d u v;
             if Random.State.int rng 4 = 0 then SG.add_arc b ~marked:true ~delay:d u v)
           (SG.arcs base);
         List.iteri
           (fun k u ->
             let d = delay () in
             List.iteri
               (fun k' v ->
                 if k < k' then begin
                   SG.add_arc b ~delay:d u v;
                   SG.add_arc b ~disengageable:true ~delay:d u v;
                   SG.add_arc b ~marked:true ~delay:d u v
                 end)
               chain;
             SG.add_arc b ~delay:(delay ()) u (SG.event base 0))
           chain;
         let g = SG.build_exn b in
         let r =
           {
             events = SG.events_of g;
             classes = Array.init (SG.event_count g) (SG.class_of g);
             arc_table = SG.arcs g;
             out_ids = [||];
             in_ids = [||];
           }
         in
         ref_canonical_form r = SG.canonical_form g))

let suite =
  [
    Alcotest.test_case "benchmarks/*.g agree with the reference" `Quick test_benchmarks;
    Alcotest.test_case "generator exports agree with the reference" `Quick
      test_generator_exports;
    Alcotest.test_case "odd event names agree with the reference" `Quick test_odd_names;
    Alcotest.test_case "conflicting event classes are errors" `Quick test_class_conflicts;
    prop_mutations;
    prop_with_arcs;
    prop_canonical_form;
  ]
