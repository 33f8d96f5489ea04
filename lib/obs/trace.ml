type kind =
  | Span of { dur_us : float; depth : int }
  | Instant
  | Counter of float

type event = {
  name : string;
  cat : string;
  ts_us : float;
  tid : int;
  args : (string * string) list;
  kind : kind;
}

(* one atomic load is the whole disabled-mode cost of a span *)
let enabled_flag = Atomic.make false

let lock = Mutex.create ()

(* events carry an internal start-order sequence number: gettimeofday
   has microsecond resolution at best, so sibling spans can tie on
   both ts and depth — the seq breaks the tie by start order *)
let buffer : (int * event) list ref = ref []
let next_seq = ref 0
let epoch = ref 0.

(* nesting depth per domain; touched only while recording *)
let depths : (int, int) Hashtbl.t = Hashtbl.create 8

let now_us () = Unix.gettimeofday () *. 1e6

let enabled () = Atomic.get enabled_flag

let clear () =
  Mutex.lock lock;
  buffer := [];
  next_seq := 0;
  Hashtbl.reset depths;
  Mutex.unlock lock

let enable () =
  clear ();
  epoch := now_us ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let self_tid () = (Domain.self () :> int)

let push ev =
  Mutex.lock lock;
  let seq = !next_seq in
  incr next_seq;
  buffer := (seq, ev) :: !buffer;
  Mutex.unlock lock

let with_span ?(cat = "timesim") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let tid = self_tid () in
    Mutex.lock lock;
    let depth = Option.value (Hashtbl.find_opt depths tid) ~default:0 in
    Hashtbl.replace depths tid (depth + 1);
    (* the seq is taken at span *start* so siblings with equal
       microsecond timestamps still sort in start order *)
    let seq = !next_seq in
    incr next_seq;
    Mutex.unlock lock;
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let dur_us = now_us () -. t0 in
        Mutex.lock lock;
        (match Hashtbl.find_opt depths tid with
        | Some d when d > 0 -> Hashtbl.replace depths tid (d - 1)
        | _ -> ());
        buffer :=
          ( seq,
            { name; cat; ts_us = t0 -. !epoch; tid; args; kind = Span { dur_us; depth } }
          )
          :: !buffer;
        Mutex.unlock lock)
      f
  end

let instant ?(cat = "timesim") ?(args = []) name =
  if Atomic.get enabled_flag then
    push
      { name; cat; ts_us = now_us () -. !epoch; tid = self_tid (); args; kind = Instant }

let counter name value =
  if Atomic.get enabled_flag then
    push
      {
        name;
        cat = "timesim";
        ts_us = now_us () -. !epoch;
        tid = self_tid ();
        args = [];
        kind = Counter value;
      }

let events () =
  Mutex.lock lock;
  let evs = !buffer in
  Mutex.unlock lock;
  (* spans are pushed at their *end*, so re-sort by start time; at
     equal starts the outermost (smaller depth) comes first, then
     start order *)
  let depth_of ev = match ev.kind with Span s -> s.depth | Instant | Counter _ -> 0 in
  List.sort
    (fun (sa, a) (sb, b) ->
      match Float.compare a.ts_us b.ts_us with
      | 0 -> ( match compare (depth_of a) (depth_of b) with 0 -> compare sa sb | c -> c)
      | c -> c)
    evs
  |> List.map snd

let durations evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev.kind with
      | Span { dur_us; _ } ->
        let count, total = Option.value (Hashtbl.find_opt tbl ev.name) ~default:(0, 0.) in
        Hashtbl.replace tbl ev.name (count + 1, total +. dur_us)
      | Instant | Counter _ -> ())
    evs;
  Hashtbl.fold (fun name (count, total) acc -> (name, count, total) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export.  Names, cats and args go through the
   shared writer; timestamps keep three decimals and counter values
   six significant digits. *)

let printed fmt x = Json.Writer (fun buf -> Printf.bprintf buf fmt x)

let event_json pid ev =
  Json.(
    let args = Obj (List.map (fun (k, v) -> (k, String v)) ev.args) in
    let common =
      [
        ("name", String ev.name);
        ("cat", String ev.cat);
        ("ts", printed "%.3f" ev.ts_us);
        ("pid", Int pid);
        ("tid", Int ev.tid);
      ]
    in
    Obj
      (common
      @
      match ev.kind with
      | Span { dur_us; _ } -> [ ("ph", String "X"); ("dur", printed "%.3f" dur_us); ("args", args) ]
      | Instant -> [ ("ph", String "i"); ("s", String "t"); ("args", args) ]
      | Counter v -> [ ("ph", String "C"); ("args", Obj [ ("value", printed "%.6g" v) ]) ]))

let to_chrome_json ?pid evs =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  Json.(
    to_string
      (Obj
         [
           ("traceEvents", List (List.map (event_json pid) evs));
           ("displayTimeUnit", String "ms");
         ]))

let write_chrome_json ?pid ~path evs =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_chrome_json ?pid evs);
      Out_channel.output_char oc '\n')
