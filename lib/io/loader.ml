type model = {
  name : string;
  graph : Tsg.Signal_graph.t;
  dialect : [ `Native | `Astg ];
}

(* one scan, no allocation: a [#] hides the rest of its line, and
   ".marking" anywhere else on a line selects the astg dialect *)
let is_astg text =
  let needle = ".marking" in
  let n = String.length needle and len = String.length text in
  let rec matches i k = k = n || (text.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec scan i in_comment =
    if i + n > len then false
    else
      match text.[i] with
      | '\n' -> scan (i + 1) false
      | '#' -> scan (i + 1) true
      | '.' when (not in_comment) && matches i 0 -> true
      | _ -> scan (i + 1) in_comment
  in
  scan 0 false

let of_string_unguarded ~name text =
  Tsg_obs.Trace.with_span "load" ~args:[ ("name", name) ] @@ fun () ->
  let astg = Tsg_obs.Trace.with_span "load/sniff" (fun () -> is_astg text) in
  let dialect = if astg then "astg" else "native" in
  Tsg_obs.Trace.with_span "load/parse" ~args:[ ("dialect", dialect) ] @@ fun () ->
  if astg then
    match Astg_format.parse text with
    | Ok doc ->
      Ok { name = doc.Astg_format.model; graph = doc.Astg_format.graph; dialect = `Astg }
    | Error msg -> Error (Printf.sprintf "cannot load %s (astg dialect): %s" name msg)
  else
    match Stg_format.parse text with
    | Ok doc ->
      Ok { name = doc.Stg_format.model; graph = doc.Stg_format.graph; dialect = `Native }
    | Error msg -> Error (Printf.sprintf "cannot load %s: %s" name msg)

let of_string ?(name = "input") text =
  (* the loader is the daemon's jaws: whatever bytes a client sends
     must come back as [Error], never as an exception.  The size
     screen runs before sniffing (which walks the whole text), and the
     catch-all turns a parser bug into a per-request error instead of
     a dead connection thread.  An expired request budget is not a bad
     model: [Deadline_exceeded] passes through to the caller, which
     answers it as a timeout. *)
  match
    Tsg_obs.Failpoint.hit "loader/load";
    match Validate.input_text text with
    | Error msg -> Error (Printf.sprintf "cannot load %s: %s" name msg)
    | Ok () -> of_string_unguarded ~name text
  with
  | result -> result
  | exception (Tsg_engine.Deadline.Deadline_exceeded as exn) -> raise exn
  | exception exn ->
    Error (Printf.sprintf "cannot load %s: %s" name (Printexc.to_string exn))

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg)
  | text -> of_string ~name:path text
