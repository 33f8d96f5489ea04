module Json = Tsg_obs.Json

type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Parsing: a plain recursive-descent reader over the input string.    *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail "expected '%c' but found '%c' at offset %d" c d st.pos
  | None -> fail "expected '%c' but input ended" c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

(* UTF-8 encode one scalar value (escapes limited to the BMP, which is
   all \uXXXX can express without surrogate pairs; pairs are combined
   below before calling this) *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "invalid \\u escape at offset %d" st.pos
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c -> v := (!v * 16) + digit c
    | None -> fail "unterminated \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let u = hex4 st in
          (* combine a surrogate pair when one follows *)
          if u >= 0xD800 && u <= 0xDBFF
             && st.pos + 1 < String.length st.src
             && st.src.[st.pos] = '\\'
             && st.src.[st.pos + 1] = 'u'
          then begin
            st.pos <- st.pos + 2;
            let lo = hex4 st in
            if lo >= 0xDC00 && lo <= 0xDFFF then
              add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            else begin
              add_utf8 buf u;
              add_utf8 buf lo
            end
          end
          else add_utf8 buf u
        | c -> fail "invalid escape '\\%c'" c);
        go ())
    | Some c when Char.code c < 0x20 -> fail "raw control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
        advance st;
        go ()
      | _ -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek st with
  | Some '.' ->
    advance st;
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> fail "invalid number %S at offset %d" text start

(* nesting cap: a hostile line of 100k '[' characters must produce a
   parse error, not exhaust the OCaml stack — the recursive descent is
   otherwise bounded only by the input *)
let max_depth = 256

let rec parse_value depth st =
  if depth > max_depth then fail "nesting deeper than %d levels" max_depth;
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value (depth + 1) st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}' at offset %d" st.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value (depth + 1) st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at offset %d" st.pos
      in
      List (elements [])
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected character '%c' at offset %d" c st.pos

let json_of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value 0 st with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
  | exception Parse_error msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let version = "tsa-rpc/5"

type ev = Ev_id of int | Ev_name of string

type sweep_edit =
  | Sw_delay of { sw_arc : int; sw_delta : float }
  | Sw_add of { sw_src : ev; sw_dst : ev; sw_delay : float; sw_marked : bool }
  | Sw_remove of int
  | Sw_mark of { sw_arc : int; sw_marked : bool }

type request =
  | Analyze of { path : string; periods : int option; timeout_ms : float option }
  | Batch of {
      paths : string list;
      periods : int option;
      jobs : int option;
      timeout_ms : float option;
    }
  | Sweep of {
      path : string;
      scenarios : sweep_edit list list;
      periods : int option;
      jobs : int option;
      timeout_ms : float option;
    }
  | Stats
  | Shutdown

(* a wire integer is integral with [|n| <= 2^53]: every such double
   is an exact OCaml int, while [int_of_float] of a larger one is
   unspecified (0 on amd64 for 1e19), which would silently edit arc 0 *)
let wire_int f = Float.is_integer f && Float.abs f <= 0x1p53

let int_field name j =
  match member name j with
  | None | Some Null -> Ok None
  | Some (Number f) when wire_int f -> Ok (Some (int_of_float f))
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

(* timeouts arrive as milliseconds; zero, negative, NaN or infinite
   budgets are configuration errors, not requests for no deadline *)
let timeout_field name j =
  match member name j with
  | None | Some Null -> Ok None
  | Some (Number f) when Float.is_finite f && f > 0. -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "field %S must be a finite positive number" name)

let string_field name j =
  match member name j with
  | Some (String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* a sweep scenario is one edit object or a list of them.  An edit
   without an "op" field is a delay edit (the tsa-rpc/3 form, still
   accepted); "op" selects the structural forms otherwise.  Deltas may
   be negative (the resulting delay is validated by the analysis, not
   the wire layer) but must be finite *)
let arc_field o =
  match member "arc" o with
  | Some (Number f) when wire_int f -> Ok (int_of_float f)
  | _ -> Error "each sweep edit must carry an integer \"arc\""

let ev_field name o =
  match member name o with
  | Some (Number f) when wire_int f -> Ok (Ev_id (int_of_float f))
  | Some (String s) -> Ok (Ev_name s)
  | _ ->
    Error
      (Printf.sprintf "field %S must be an event id (integer) or event name (string)"
         name)

let marked_field ?default o =
  match (member "marked" o, default) with
  | Some (Bool b), _ -> Ok b
  | (None | Some Null), Some d -> Ok d
  | (None | Some Null), None -> Error "field \"marked\" must be a boolean"
  | Some _, _ -> Error "field \"marked\" must be a boolean"

let edit_of_json = function
  | Obj _ as o -> (
    let op =
      match member "op" o with
      | Some (String s) -> Ok s
      | None | Some Null -> Ok "delay"
      | Some _ -> Error "edit field \"op\" must be a string"
    in
    let* op = op in
    match op with
    | "delay" ->
      let* arc = arc_field o in
      let* delta =
        match member "delta" o with
        | Some (Number f) when Float.is_finite f -> Ok f
        | _ -> Error "each sweep edit must carry a finite number \"delta\""
      in
      Ok (Sw_delay { sw_arc = arc; sw_delta = delta })
    | "add" ->
      let* src = ev_field "src" o in
      let* dst = ev_field "dst" o in
      let* delay =
        match member "delay" o with
        | Some (Number f) when Float.is_finite f && f >= 0. -> Ok f
        | _ -> Error "an \"add\" edit must carry a finite non-negative \"delay\""
      in
      let* marked = marked_field ~default:false o in
      Ok (Sw_add { sw_src = src; sw_dst = dst; sw_delay = delay; sw_marked = marked })
    | "remove" ->
      let* arc = arc_field o in
      Ok (Sw_remove arc)
    | "mark" ->
      let* arc = arc_field o in
      let* marked = marked_field o in
      Ok (Sw_mark { sw_arc = arc; sw_marked = marked })
    | op -> Error (Printf.sprintf "unknown edit op %S" op))
  | _ -> Error "field \"deltas\" must hold edit objects or lists of edit objects"

let scenario_of_json = function
  | Obj _ as o ->
    let* e = edit_of_json o in
    Ok [ e ]
  | List items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* e = edit_of_json item in
        Ok (e :: acc))
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "field \"deltas\" must hold edit objects or lists of edit objects"

let parse_request line =
  let* j = json_of_string line in
  let* op = string_field "op" j in
  match op with
  | "analyze" ->
    let* path = string_field "path" j in
    let* periods = int_field "periods" j in
    let* timeout_ms = timeout_field "timeout_ms" j in
    Ok (Analyze { path; periods; timeout_ms })
  | "batch" ->
    let* paths =
      match member "paths" j with
      | Some (List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | String s -> Ok (s :: acc)
            | _ -> Error "field \"paths\" must be a list of strings")
          (Ok []) items
        |> Result.map List.rev
      | Some _ -> Error "field \"paths\" must be a list of strings"
      | None -> Error "missing field \"paths\""
    in
    let* periods = int_field "periods" j in
    let* jobs = int_field "jobs" j in
    let* timeout_ms = timeout_field "timeout_ms" j in
    Ok (Batch { paths; periods; jobs; timeout_ms })
  | "sweep" ->
    let* path = string_field "path" j in
    let* scenarios =
      match member "deltas" j with
      | Some (List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* s = scenario_of_json item in
            Ok (s :: acc))
          (Ok []) items
        |> Result.map List.rev
      | Some _ -> Error "field \"deltas\" must be a list"
      | None -> Error "missing field \"deltas\""
    in
    let* periods = int_field "periods" j in
    let* jobs = int_field "jobs" j in
    let* timeout_ms = timeout_field "timeout_ms" j in
    Ok (Sweep { path; scenarios; periods; jobs; timeout_ms })
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* Rendering: request and error lines through the shared writer, so
   they keep the replies' number and string contract. *)

let ev_json = function Ev_id i -> Json.Int i | Ev_name n -> Json.String n

(* delay edits keep the tsa-rpc/3 wire shape so old daemons still
   answer delay-only sweeps from a new client *)
let edit_json edit =
  Json.(
    match edit with
    | Sw_delay { sw_arc; sw_delta } -> Obj [ ("arc", Int sw_arc); ("delta", Float sw_delta) ]
    | Sw_add { sw_src; sw_dst; sw_delay; sw_marked } ->
      Obj
        [
          ("op", String "add");
          ("src", ev_json sw_src);
          ("dst", ev_json sw_dst);
          ("delay", Float sw_delay);
          ("marked", Bool sw_marked);
        ]
    | Sw_remove arc -> Obj [ ("op", String "remove"); ("arc", Int arc) ]
    | Sw_mark { sw_arc; sw_marked } ->
      Obj [ ("op", String "mark"); ("arc", Int sw_arc); ("marked", Bool sw_marked) ])

(* the optional fields, in wire order; absent ones are omitted *)
let options ?jobs ~periods ~timeout_ms () =
  Json.(
    List.filter_map Fun.id
      [
        Option.map (fun n -> ("periods", Int n)) periods;
        Option.map (fun n -> ("jobs", Int n)) jobs;
        Option.map (fun t -> ("timeout_ms", Float t)) timeout_ms;
      ])

let request_to_string r =
  Json.(
    let op name = ("op", String name) in
    let fields =
      match r with
      | Analyze { path; periods; timeout_ms } ->
        op "analyze" :: ("path", String path) :: options ~periods ~timeout_ms ()
      | Batch { paths; periods; jobs; timeout_ms } ->
        op "batch"
        :: ("paths", List (List.map (fun p -> String p) paths))
        :: options ?jobs ~periods ~timeout_ms ()
      | Sweep { path; scenarios; periods; jobs; timeout_ms } ->
        op "sweep"
        :: ("path", String path)
        :: ("deltas", List (List.map (fun s -> List (List.map edit_json s)) scenarios))
        :: options ?jobs ~periods ~timeout_ms ()
      | Stats -> [ op "stats" ]
      | Shutdown -> [ op "shutdown" ]
    in
    to_string (Obj fields))

let error_line ?code msg =
  Json.(
    let code = match code with Some c -> [ ("code", String c) ] | None -> [] in
    to_string (Obj ((("status", String "error") :: code) @ [ ("error", String msg) ])))
