type t = {
  sg : Signal_graph.t;
  times : (int * float array) list; (* per repetitive event *)
  steady : Steady_state.t;
}

let analyze ?max_periods g =
  let times = Steady_state.simulate ?max_periods g in
  Option.map (fun steady -> { sg = g; times; steady }) (Steady_state.search times)

let lambda t = t.steady.Steady_state.lambda
let pattern_period t = t.steady.Steady_state.pattern_period
let transient_periods t = t.steady.Steady_state.transient_periods

let times_of t e =
  match List.assoc_opt e t.times with
  | Some ts -> ts
  | None ->
    invalid_arg
      (Printf.sprintf "Separation: event %s is not repetitive"
         (Event.to_string (Signal_graph.event t.sg e)))

let steady_skew t ~from_ ~to_ =
  let tf = times_of t from_ and tt = times_of t to_ in
  let k = pattern_period t and i0 = transient_periods t in
  List.init k (fun j -> tt.(i0 + j) -. tf.(i0 + j))

let extremes t ~from_ ~to_ =
  let tf = times_of t from_ and tt = times_of t to_ in
  let n = min (Array.length tf) (Array.length tt) in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to n - 1 do
    let d = tt.(i) -. tf.(i) in
    if d < !lo then lo := d;
    if d > !hi then hi := d
  done;
  (!lo, !hi)

let phase t e =
  let ts = times_of t e in
  let k = pattern_period t and i0 = transient_periods t in
  (* the reference is the earliest occurrence of any event within the
     pattern window *)
  let reference =
    List.fold_left
      (fun acc (_, ts') ->
        let m = ref acc in
        for j = 0 to k - 1 do
          if ts'.(i0 + j) < !m then m := ts'.(i0 + j)
        done;
        !m)
      infinity t.times
  in
  List.init k (fun j -> ts.(i0 + j) -. reference)
