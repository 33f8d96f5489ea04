open Tsg

type document = { model : string; graph : Signal_graph.t }

type section = Preamble | Events | Graph

let class_of_keyword = function
  | "initial" -> Some Signal_graph.Initial
  | "nonrep" -> Some Signal_graph.Non_repetitive
  | "rep" -> Some Signal_graph.Repetitive
  | _ -> None

let keyword_of_class = function
  | Signal_graph.Initial -> "initial"
  | Signal_graph.Non_repetitive -> "nonrep"
  | Signal_graph.Repetitive -> "rep"

(* String.trim's blanks: they end a line's content but only spaces and
   tabs separate its words *)
let is_trimmed = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [text] holds [lit] from [first + j] on *)
let rec bytes_match text first lit j =
  j = String.length lit
  || (text.[first + j] = lit.[j] && bytes_match text first lit (j + 1))

(* One pass over the text by index: no line or word lists.  Each line
   is cut at its first [#], trimmed, and split into words whose bounds
   go to [starts]/[stops].  Endpoint tokens are interned, so
   [Event.of_string] runs once per distinct spelling; the builder's
   own index then merges spellings of one event ([a+] and [a+/1]).
   Events get ids in first-appearance order and arcs keep file order,
   so the graph is the one the line-by-line grammar describes. *)
let parse_checked text =
  let len = String.length text in
  let b = Signal_graph.builder () in
  let tokens : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let events = ref 0 and arcs = ref 0 in
  let model = ref "unnamed" and section = ref Preamble in
  let starts = ref (Array.make 8 0) and stops = ref (Array.make 8 0) and words = ref 0 in
  let lineno = ref 0 in
  let exception Stop of string in
  let exception End in
  let fail fmt =
    Fmt.kstr (fun m -> raise (Stop (Printf.sprintf "line %d: %s" !lineno m))) fmt
  in
  let word k = String.sub text !starts.(k) (!stops.(k) - !starts.(k)) in
  let is k lit =
    !stops.(k) - !starts.(k) = String.length lit && bytes_match text !starts.(k) lit 0
  in
  let split first last =
    words := 0;
    let i = ref first in
    while !i < last do
      while !i < last && (text.[!i] = ' ' || text.[!i] = '\t') do
        incr i
      done;
      if !i < last then begin
        if !words = Array.length !starts then begin
          let wider a = Array.append a (Array.make !words 0) in
          starts := wider !starts;
          stops := wider !stops
        end;
        !starts.(!words) <- !i;
        while !i < last && text.[!i] <> ' ' && text.[!i] <> '\t' do
          incr i
        done;
        !stops.(!words) <- !i;
        incr words
      end
    done
  in
  let event k cls =
    let tok = word k in
    match Hashtbl.find_opt tokens tok with
    | Some id -> id
    | None -> (
      match Event.of_string tok with
      | Error msg -> fail "%s" msg
      | Ok ev ->
        let id = Signal_graph.intern b ev cls in
        if id = !events then incr events;
        Hashtbl.add tokens tok id;
        id)
  in
  (* an explicit class must agree with the event's first declaration *)
  let declare k cls =
    let known = Signal_graph.builder_class b (event k cls) in
    if known <> cls then
      fail "event %s already declared as %s" (word k) (keyword_of_class known)
  in
  let line () =
    let n = !words in
    if is 0 ".model" then
      if n = 2 then model := word 1 else fail ".model takes one name"
    else if n = 1 && is 0 ".events" then section := Events
    else if n = 1 && is 0 ".graph" then section := Graph
    else if n = 1 && is 0 ".end" then raise End
    else
      match !section with
      | Preamble -> fail "expected .model, .events or .graph"
      | Events -> (
        if n = 1 then declare 0 Signal_graph.Repetitive
        else if n <> 2 then fail "event lines are: <event> [initial|nonrep|rep]"
        else
          let cls = word 1 in
          match class_of_keyword cls with
          | Some c -> declare 0 c
          | None -> fail "unknown event class %S" cls)
      | Graph ->
        if n < 3 then fail "arc lines are: <src> <dst> <delay> [token] [once]";
        let u = event 0 Signal_graph.Repetitive in
        let v = event 1 Signal_graph.Repetitive in
        let delay = word 2 in
        let d =
          match float_of_string_opt delay with
          | Some d -> (
            (* the shared judgement: NaN/inf/negative delays are
               rejected with the same wording in every dialect *)
            match Validate.delay d with
            | Ok d -> d
            | Error msg -> fail "%s" msg)
          | None -> fail "invalid delay %S" delay
        in
        let marked = ref false and once = ref false in
        for k = 3 to n - 1 do
          if is k "token" then marked := true
          else if is k "once" then once := true
          else fail "unknown arc flag %S" (word k)
        done;
        Signal_graph.add_arc_id b ~marked:!marked ~disengageable:!once ~delay:d u v;
        incr arcs
  in
  let rec lines pos =
    if pos <= len then begin
      incr lineno;
      if !lineno land 8191 = 0 then Tsg_engine.Deadline.(check (current ()));
      let stop = ref pos and cut = ref (-1) in
      while !stop < len && text.[!stop] <> '\n' do
        if !cut < 0 && text.[!stop] = '#' then cut := !stop;
        incr stop
      done;
      let first = ref pos and last = ref (if !cut < 0 then !stop else !cut) in
      while !first < !last && is_trimmed text.[!first] do
        incr first
      done;
      while !last > !first && is_trimmed text.[!last - 1] do
        decr last
      done;
      if !first < !last then begin
        split !first !last;
        line ()
      end;
      lines (!stop + 1)
    end
  in
  match
    (try lines 0 with End -> ());
    (match Validate.counts ~events:!events ~arcs:!arcs with
    | Ok () -> ()
    | Error msg -> raise (Stop msg));
    Signal_graph.build b
  with
  | Ok graph -> Ok { model = !model; graph }
  | Error errs ->
    Error (Fmt.str "invalid graph: %a" Fmt.(list ~sep:(any "; ") Signal_graph.pp_error) errs)
  | exception Stop msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let parse text =
  match Validate.input_text text with
  | Error msg -> Error msg
  | Ok () -> parse_checked text

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let to_string ?(model = "unnamed") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n.events\n" model);
  Array.iteri
    (fun i ev ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" (Event.to_string ev)
           (keyword_of_class (Signal_graph.class_of g i))))
    (Signal_graph.events_of g);
  Buffer.add_string buf ".graph\n";
  Array.iter
    (fun (a : Signal_graph.arc) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %g%s%s\n"
           (Event.to_string (Signal_graph.event g a.arc_src))
           (Event.to_string (Signal_graph.event g a.arc_dst))
           a.delay
           (if a.marked then " token" else "")
           (if a.disengageable then " once" else "")))
    (Signal_graph.arcs g);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file ?model path g =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string ?model g))
