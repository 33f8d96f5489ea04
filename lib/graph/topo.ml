(* Kahn's algorithm with a min-heap on vertex ids, so the produced
   order is canonical (smallest available id first). *)

module Int_heap = struct
  type t = { mutable data : int array; mutable size : int }

  let create n = { data = Array.make (max n 1) 0; size = 0 }

  let push h x =
    if h.size = Array.length h.data then begin
      let data' = Array.make (2 * h.size) 0 in
      Array.blit h.data 0 data' 0 h.size;
      h.data <- data'
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.data.(!i) <- x;
    while !i > 0 && h.data.((!i - 1) / 2) > h.data.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    assert (h.size > 0);
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.data.(l) < h.data.(!smallest) then smallest := l;
      if r < h.size && h.data.(r) < h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !smallest
      end
    done;
    top

  let is_empty h = h.size = 0
end

(* the one Kahn loop behind both entry points *)
let sort_succ ~check n iter_succ =
  let in_deg = Array.make n 0 in
  let count w = in_deg.(w) <- in_deg.(w) + 1 in
  for v = 0 to n - 1 do
    iter_succ v count
  done;
  let heap = Int_heap.create n in
  for v = 0 to n - 1 do
    if in_deg.(v) = 0 then Int_heap.push heap v
  done;
  let relax w =
    in_deg.(w) <- in_deg.(w) - 1;
    if in_deg.(w) = 0 then Int_heap.push heap w
  in
  let order = Array.make n 0 in
  let emitted = ref 0 in
  while not (Int_heap.is_empty heap) do
    if !emitted land 8191 = 0 then check ();
    let v = Int_heap.pop heap in
    order.(!emitted) <- v;
    incr emitted;
    iter_succ v relax
  done;
  if !emitted = n then Some order else None

let sort g =
  let n = Digraph.vertex_count g in
  match sort_succ ~check:ignore n (fun v f -> Digraph.iter_out g v (fun w _ -> f w)) with
  | Some order -> Ok (Array.to_list order)
  | None ->
    (* every vertex never emitted has residual in-degree > 0: it lies on
       or downstream of a cycle; report only vertices on actual cycles
       by intersecting with vertices of non-singleton SCCs / self-loops *)
    let comp, count = Scc.component_ids g in
    let size = Array.make count 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
    let on_cycle v =
      size.(comp.(v)) > 1 || List.exists (fun w -> w = v) (Digraph.succ g v)
    in
    let bad = ref [] in
    for v = n - 1 downto 0 do
      if on_cycle v then bad := v :: !bad
    done;
    Error !bad

let is_dag g = match sort g with Ok _ -> true | Error _ -> false

let sort_exn g =
  match sort g with
  | Ok order -> order
  | Error _ -> invalid_arg "Topo.sort_exn: graph has a cycle"
