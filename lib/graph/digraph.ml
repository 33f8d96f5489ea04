(* Adjacency lists are stored in reverse insertion order (cons on insert)
   so that insertion is O(1); accessors present arcs in insertion order,
   which keeps every client algorithm deterministic.  The iterators walk
   a stored list back to front on the stack instead of copying it. *)

type 'a t = {
  mutable n : int;
  mutable m : int;
  mutable out_adj : (int * 'a) list array; (* per src, reversed *)
  mutable in_adj : (int * 'a) list array; (* per dst, reversed *)
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { n = 0; m = 0; out_adj = Array.make capacity []; in_adj = Array.make capacity [] }

let copy g =
  { g with out_adj = Array.copy g.out_adj; in_adj = Array.copy g.in_adj }

let vertex_count g = g.n
let arc_count g = g.m
let mem_vertex g v = v >= 0 && v < g.n

let ensure_capacity g k =
  let cap = Array.length g.out_adj in
  if k > cap then begin
    let cap' =
      let rec grow c = if c >= k then c else grow (2 * c) in
      grow cap
    in
    let out' = Array.make cap' [] and in' = Array.make cap' [] in
    Array.blit g.out_adj 0 out' 0 g.n;
    Array.blit g.in_adj 0 in' 0 g.n;
    g.out_adj <- out';
    g.in_adj <- in'
  end

let add_vertex g =
  ensure_capacity g (g.n + 1);
  let v = g.n in
  g.n <- g.n + 1;
  v

let add_vertices g k =
  if k < 0 then invalid_arg "Digraph.add_vertices: negative count";
  ensure_capacity g (g.n + k);
  g.n <- g.n + k

let check_vertex g v name =
  if not (mem_vertex g v) then
    invalid_arg (Printf.sprintf "Digraph.%s: vertex %d out of range [0, %d)" name v g.n)

let add_arc g ~src ~dst label =
  check_vertex g src "add_arc";
  check_vertex g dst "add_arc";
  g.out_adj.(src) <- (dst, label) :: g.out_adj.(src);
  g.in_adj.(dst) <- (src, label) :: g.in_adj.(dst);
  g.m <- g.m + 1

let out_arcs g v =
  check_vertex g v "out_arcs";
  List.rev g.out_adj.(v)

let in_arcs g v =
  check_vertex g v "in_arcs";
  List.rev g.in_adj.(v)

let mem_arc g ~src ~dst =
  check_vertex g src "mem_arc";
  check_vertex g dst "mem_arc";
  List.exists (fun (d, _) -> d = dst) g.out_adj.(src)

let find_arc g ~src ~dst =
  check_vertex g src "find_arc";
  check_vertex g dst "find_arc";
  (* adjacency is reversed, so the first inserted matching arc is the
     last match in the stored list *)
  List.fold_left
    (fun acc (d, label) -> if d = dst then Some label else acc)
    None g.out_adj.(src)

let succ g v = List.map fst (out_arcs g v)
let pred g v = List.map fst (in_arcs g v)

let out_degree g v =
  check_vertex g v "out_degree";
  List.length g.out_adj.(v)

let in_degree g v =
  check_vertex g v "in_degree";
  List.length g.in_adj.(v)

(* [f] over a stored (reversed) list in insertion order *)
let rec iter_rev f = function
  | [] -> ()
  | (w, label) :: rest ->
    iter_rev f rest;
    f w label

let iter_out g v f =
  check_vertex g v "iter_out";
  iter_rev f g.out_adj.(v)

let iter_in g v f =
  check_vertex g v "iter_in";
  iter_rev f g.in_adj.(v)

let iter_vertices g f =
  for v = 0 to g.n - 1 do
    f v
  done

let iter_arcs g f =
  for src = 0 to g.n - 1 do
    iter_rev (f src) g.out_adj.(src)
  done

let fold_arcs g ~init ~f =
  let acc = ref init in
  iter_arcs g (fun src dst label -> acc := f !acc src dst label);
  !acc

let arcs g =
  List.rev (fold_arcs g ~init:[] ~f:(fun acc src dst label -> (src, dst, label) :: acc))

let of_arcs ~n arc_list =
  let g = create ~capacity:(max n 1) () in
  add_vertices g n;
  List.iter (fun (src, dst, label) -> add_arc g ~src ~dst label) arc_list;
  g

let map_labels ~f g =
  let g' = create ~capacity:(max g.n 1) () in
  add_vertices g' g.n;
  iter_arcs g (fun src dst label -> add_arc g' ~src ~dst (f label));
  g'

let transpose g =
  let g' = create ~capacity:(max g.n 1) () in
  add_vertices g' g.n;
  iter_arcs g (fun src dst label -> add_arc g' ~src:dst ~dst:src label);
  g'

let pp pp_label ppf g =
  Fmt.pf ppf "@[<v>digraph: %d vertices, %d arcs" g.n g.m;
  iter_arcs g (fun src dst label ->
      Fmt.pf ppf "@,%d -> %d [%a]" src dst pp_label label);
  Fmt.pf ppf "@]"
