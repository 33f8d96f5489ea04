let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between the two closest ranks (the "inclusive"
   definition, as Python's statistics.quantiles(method="inclusive")
   and numpy's default) *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: p outside [0, 1]";
  let pos = p *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let tail_supported ~n p = beyond ~n p >= 10

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
