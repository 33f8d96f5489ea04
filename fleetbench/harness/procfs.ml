(* /proc/<pid>/stat times are in USER_HZ ticks, which Linux fixes at
   100 for userspace regardless of the kernel's internal HZ *)
let ticks_per_s = 100.

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    Some (Buffer.contents buf)

(* the command name (field 2) is parenthesised and may contain spaces
   or parentheses itself, so fields are counted from the last ')' *)
let cpu_ms_of_stat line =
  match String.rindex_opt line ')' with
  | None -> None
  | Some i -> (
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let fields =
      List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim rest))
    in
    (* rest starts at field 3 (state); utime and stime are 14 and 15 *)
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s -> (
      match (int_of_string_opt u, int_of_string_opt s) with
      | Some u, Some s -> Some (float_of_int (u + s) *. 1000. /. ticks_per_s)
      | _ -> None)
    | _ -> None)

let status_kb text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           (match String.split_on_char ' ' (String.trim v) with
           | n :: _ -> int_of_string_opt n
           | [] -> None)
         | _ -> None)

let cpu_ms pid =
  Option.bind (read_file (Printf.sprintf "/proc/%d/stat" pid)) cpu_ms_of_stat

let peak_rss_kb pid =
  Option.bind (read_file (Printf.sprintf "/proc/%d/status" pid)) (fun t ->
      status_kb t "VmHWM")
