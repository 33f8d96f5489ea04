let rel_tol = 1e-9

let close ?(rel = rel_tol) a b =
  a = b || Float.abs (a -. b) <= rel *. Float.max (Float.abs a) (Float.abs b)

let report_marker = {|"report":{"cycle_time":|}

let find_from s sub i =
  let n = String.length s and m = String.length sub in
  let rec matches j k = k = m || (s.[j + k] = sub.[k] && matches j (k + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go i

(* every ok analysis in a response embeds one report object whose first
   member is the cycle time; scanning for it avoids parsing replies of
   several megabytes on the client's request loop *)
let report_cycle_times line =
  let m = String.length report_marker in
  let rec go i acc =
    match find_from line report_marker i with
    | None -> List.rev acc
    | Some j ->
      let start = j + m in
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with ',' | '}' -> false | _ -> true)
      do
        incr stop
      done;
      let v = float_of_string_opt (String.sub line start (!stop - start)) in
      go !stop (Option.value v ~default:Float.nan :: acc)
  in
  go 0 []

let check_cycle_times ~expected line =
  let got = report_cycle_times line in
  let n_exp = Array.length expected in
  if List.length got <> n_exp then
    Error
      (Printf.sprintf "expected %d cycle time(s), reply holds %d" n_exp
         (List.length got))
  else
    let bad =
      List.filteri (fun i g -> not (close g expected.(i))) got
      |> List.length
    in
    if bad = 0 then Ok ()
    else
      Error
        (Printf.sprintf "%d of %d cycle times differ from the oracle (first: %s)" bad
           n_exp
           (String.concat ", "
              (List.mapi
                 (fun i g -> Printf.sprintf "got %.17g want %.17g" g expected.(i))
                 got)))

let same_bytes ~first line =
  let strip l = Option.value (Tsg_engine.Proxy.strip_degraded l) ~default:l in
  String.equal (strip first) (strip line)
