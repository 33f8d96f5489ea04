type csr = { starts : int array; neighbors : int array; arc_ids : int array }

(* the instance space: everything an instance id depends on *)
type layout = {
  sg : Signal_graph.t;
  k : int; (* number of periods *)
  n_events : int;
  n_instances : int;
  rep_index : int array; (* event id -> dense repetitive index, or -1 *)
  rep_ids : int array; (* dense repetitive index -> event id *)
}

(* every view is built once, by [make] or [patch], and never mutated,
   so an unfolding can be shared across domains as it is.  The compact
   adjacency and the topological order feed the hot loops of the
   timing simulation. *)
type t = {
  l : layout;
  in_csr : csr;
  out_csr : csr;
  topo : int array;
  topo_pos : int array;
  delays : float array;
}

let instance_id l ~event ~period =
  if period = 0 then event
  else l.n_events + ((period - 1) * Array.length l.rep_ids) + l.rep_index.(event)

(* enumerate the (src instance, dst instance) pairs an arc induces in
   the unfolding, period ascending — the construction enumerates them
   arc id ascending, and [patch] also uses it to diff instance sets.
   The pairs depend only on the arc's endpoints, marking and
   disengageability plus the event classes, never on the rest of the
   arc table. *)
let iter_arc_instances l (a : Signal_graph.arc) f =
  let sg = l.sg in
  let periods = l.k in
  let once = a.disengageable || not (Signal_graph.is_repetitive sg a.arc_src) in
  let m = if a.marked then 1 else 0 in
  if once then begin
    (* single constraint u_0 -> v_m, when the destination instance exists *)
    let dst_exists =
      m = 0 || (m < periods && Signal_graph.is_repetitive sg a.arc_dst)
    in
    if dst_exists then
      f (instance_id l ~event:a.arc_src ~period:0) (instance_id l ~event:a.arc_dst ~period:m)
  end
  else begin
    let dst_periods = if Signal_graph.is_repetitive sg a.arc_dst then periods else 1 in
    for i = m to dst_periods - 1 do
      f (instance_id l ~event:a.arc_src ~period:(i - m)) (instance_id l ~event:a.arc_dst ~period:i)
    done
  end

(* The one construction, shared by [make] and [patch].  The slice
   order is fixed by definition: arc instances in generation order
   (arc id ascending, then period ascending), stably counting-sorted
   by source for the out-CSR, and that sequence stably counting-sorted
   by destination for the in-CSR.  Backtracking breaks longest-path
   ties by adjacency order, so this order is what makes a patched
   unfolding's reports serialise byte for byte like a fresh one's.
   [O(periods * arcs)], with amortised deadline checks in every pass
   so a pathological (huge-period) unfolding stays within its
   budget. *)
let synthesize_csrs ~deadline l =
  let check i = if i land 8191 = 0 then Tsg_engine.Deadline.check deadline in
  let n = l.n_instances in
  let arcs = Signal_graph.arcs l.sg in
  (* pass 1: per-instance out- and in-degrees *)
  let out_starts = Array.make (n + 1) 0 and in_starts = Array.make (n + 1) 0 in
  let m = ref 0 in
  Array.iter
    (fun a ->
      iter_arc_instances l a (fun src dst ->
          check !m;
          incr m;
          out_starts.(src + 1) <- out_starts.(src + 1) + 1;
          in_starts.(dst + 1) <- in_starts.(dst + 1) + 1))
    arcs;
  for v = 1 to n do
    out_starts.(v) <- out_starts.(v) + out_starts.(v - 1);
    in_starts.(v) <- in_starts.(v) + in_starts.(v - 1)
  done;
  let m = !m in
  (* pass 2, the sort by source: regenerate in generation order and
     drop each instance into its source's next free slot *)
  let dsts = Array.make (max m 1) 0 and out_aids = Array.make (max m 1) 0 in
  let fill = Array.copy out_starts in
  let k = ref 0 in
  Array.iteri
    (fun aid a ->
      iter_arc_instances l a (fun src dst ->
          check !k;
          incr k;
          let p = fill.(src) in
          fill.(src) <- p + 1;
          dsts.(p) <- dst;
          out_aids.(p) <- aid))
    arcs;
  (* the sort of that sequence by destination *)
  let srcs = Array.make (max m 1) 0 and in_aids = Array.make (max m 1) 0 in
  let fill = Array.copy in_starts in
  for v = 0 to n - 1 do
    check v;
    for p = out_starts.(v) to out_starts.(v + 1) - 1 do
      let q = fill.(dsts.(p)) in
      fill.(dsts.(p)) <- q + 1;
      srcs.(q) <- v;
      in_aids.(q) <- out_aids.(p)
    done
  done;
  ( { starts = in_starts; neighbors = srcs; arc_ids = in_aids },
    { starts = out_starts; neighbors = dsts; arc_ids = out_aids } )

let inverse order =
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  pos

(* the canonical order of {!Tsg_graph.Topo.sort} (smallest id first) *)
let sort_topo ~deadline out_csr =
  match
    Tsg_graph.Topo.sort_csr
      ~check:(fun () -> Tsg_engine.Deadline.check deadline)
      ~starts:out_csr.starts ~targets:out_csr.neighbors
  with
  | Some order -> order
  | None -> invalid_arg "Unfolding: the unfolding has a cycle"

let views l (in_csr, out_csr) topo topo_pos =
  let delays = Array.map (fun (a : Signal_graph.arc) -> a.delay) (Signal_graph.arcs l.sg) in
  { l; in_csr; out_csr; topo; topo_pos; delays }

let make ?(deadline = Tsg_engine.Deadline.none) sg ~periods =
  if periods < 1 then invalid_arg "Unfolding.make: periods must be >= 1";
  Tsg_obs.Trace.with_span "unfolding/make" ~args:[ ("periods", string_of_int periods) ]
  @@ fun () ->
  let n_events = Signal_graph.event_count sg in
  let rep_list = Signal_graph.repetitive_events sg in
  let r = List.length rep_list in
  let rep_index = Array.make (max n_events 1) (-1) in
  let rep_ids = Array.make (max r 1) 0 in
  List.iteri
    (fun i e ->
      rep_index.(e) <- i;
      rep_ids.(i) <- e)
    rep_list;
  let rep_ids = Array.sub rep_ids 0 r in
  let total = n_events + ((periods - 1) * r) in
  let l = { sg; k = periods; n_events; n_instances = total; rep_index; rep_ids } in
  let ((_, out_csr) as csrs) = synthesize_csrs ~deadline l in
  let topo = sort_topo ~deadline out_csr in
  Tsg_engine.Metrics.incr "unfolding/built";
  Tsg_engine.Metrics.incr ~by:total "unfolding/instances";
  views l csrs topo (inverse topo)

let signal_graph t = t.l.sg
let periods t = t.l.k
let instance_count t = t.l.n_instances

let instance_opt t ~event ~period =
  let l = t.l in
  if event < 0 || event >= l.n_events || period < 0 || period >= l.k then None
  else if period > 0 && l.rep_index.(event) < 0 then None
  else Some (instance_id l ~event ~period)

let instance t ~event ~period =
  match instance_opt t ~event ~period with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Unfolding.instance: no instance of event %d in period %d" event
         period)

let event_of_instance t i =
  let l = t.l in
  if i < l.n_events then (i, 0)
  else begin
    let r = Array.length l.rep_ids in
    let off = i - l.n_events in
    (l.rep_ids.(off mod r), 1 + (off / r))
  end

(* ------------------------------------------------------------------ *)
(* Compact views                                                       *)

let in_adjacency t = (t.in_csr.starts, t.in_csr.neighbors, t.in_csr.arc_ids)
let out_adjacency t = (t.out_csr.starts, t.out_csr.neighbors, t.out_csr.arc_ids)

let initial_instances t =
  (* an instance is initial iff its slice of the in-CSR is empty *)
  let starts = t.in_csr.starts in
  let result = ref [] in
  for i = instance_count t - 1 downto 0 do
    if starts.(i + 1) = starts.(i) then result := i :: !result
  done;
  !result

let topological_order t = t.topo
let topo_position t = t.topo_pos
let delays t = t.delays
let warm_caches (_ : t) = ()

(* ------------------------------------------------------------------ *)
(* Structural patching                                                 *)

type patch_delta = {
  pd_spliced : (int * int) array;
  pd_dropped : (int * int) array;
}

(* Bounded position-shift repair of [t]'s topological order for the
   patched CSRs: let W be the contiguous position window [lo, hi]
   spanning every spliced arc that runs backwards (lo = min position
   of a violating dst, hi = max position of a violating src).  Any
   new-dag arc with at most one endpoint in W is already satisfied by
   the base positions (a kept or forward spliced arc crossing the
   window boundary cannot invert inside it), so re-ranking the members
   of W among themselves — a local Kahn scan over the new dag
   restricted to W, emitting into positions lo..hi — yields a valid
   order for the whole dag without touching the other [n - |W|]
   positions.  [None] when the window holds a cycle. *)
let shift_window ~deadline t (in_csr, out_csr) spliced =
  let base_topo = t.topo and base_pos = t.topo_pos in
  let lo = ref max_int and hi = ref (-1) in
  Array.iter
    (fun (s, d) ->
      if base_pos.(s) > base_pos.(d) then begin
        if base_pos.(d) < !lo then lo := base_pos.(d);
        if base_pos.(s) > !hi then hi := base_pos.(s)
      end)
    spliced;
  let lo = !lo and hi = !hi in
  let topo = Array.copy base_topo in
  let pos = Array.copy base_pos in
  let in_window v =
    let p = base_pos.(v) in
    p >= lo && p <= hi
  in
  let in_starts = in_csr.starts and in_srcs = in_csr.neighbors in
  let out_starts = out_csr.starts and out_dsts = out_csr.neighbors in
  let indeg = Array.make (instance_count t) 0 in
  for p = lo to hi do
    let v = base_topo.(p) in
    let cnt = ref 0 in
    for j = in_starts.(v) to in_starts.(v + 1) - 1 do
      if in_window in_srcs.(j) then incr cnt
    done;
    indeg.(v) <- !cnt
  done;
  let q = Queue.create () in
  for p = lo to hi do
    let v = base_topo.(p) in
    if indeg.(v) = 0 then Queue.add v q
  done;
  let next = ref lo in
  while not (Queue.is_empty q) do
    if !next land 8191 = 0 then Tsg_engine.Deadline.check deadline;
    let v = Queue.pop q in
    topo.(!next) <- v;
    pos.(v) <- !next;
    incr next;
    for j = out_starts.(v) to out_starts.(v + 1) - 1 do
      let w = out_dsts.(j) in
      if in_window w then begin
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w q
      end
    done
  done;
  if !next = hi + 1 then begin
    Tsg_engine.Metrics.incr "unfolding/topo_shifted";
    Tsg_engine.Metrics.incr ~by:(hi - lo + 1) "unfolding/topo_window";
    Some (topo, pos)
  end
  else None

(* The load-bearing simplification: [instance_id] depends only on the
   event set, the event classes and the period count — never on the
   arc table.  An arc-level edit (add/remove/marking flip) therefore
   keeps every instance id stable; only the DAG's arcs change, and
   the same [synthesize_csrs] as [make] rebuilds them.  Only the
   topological order may differ from a fresh build's, and any valid
   order is equivalent for the simulation (occurrence times are
   order-independent maxima). *)
let patch ?(deadline = Tsg_engine.Deadline.none) t g' ~arc_map =
  if Signal_graph.event_count g' <> t.l.n_events then
    invalid_arg "Unfolding.patch: the edited graph has a different event set";
  for e = 0 to t.l.n_events - 1 do
    if Signal_graph.class_of g' e <> Signal_graph.class_of t.l.sg e then
      invalid_arg "Unfolding.patch: the edited graph changes an event class"
  done;
  let arcs_old = Signal_graph.arcs t.l.sg in
  let arcs_new = Signal_graph.arcs g' in
  if Array.length arc_map <> Array.length arcs_old then
    invalid_arg "Unfolding.patch: arc_map length differs from the base arc count";
  Tsg_obs.Trace.with_span "unfolding/patch" @@ fun () ->
  let l = t.l in
  let l' = { l with sg = g' } in
  let ((_, out_csr') as csrs) = synthesize_csrs ~deadline l' in
  (* diff the instance sets through [arc_map]: a surviving arc with
     unchanged marking/disengageability instantiates identically; a
     flipped one regenerates (old instances dropped, new spliced); an
     unmapped base arc drops its cone seeds; a new arc with no
     preimage splices fresh instances *)
  let dropped = ref [] and spliced = ref [] in
  let note acc l0 a = iter_arc_instances l0 a (fun s d -> acc := (s, d) :: !acc) in
  let mapped = Array.make (max (Array.length arcs_new) 1) false in
  Array.iteri
    (fun a a' ->
      if a' < 0 then note dropped l arcs_old.(a)
      else begin
        let old_a = arcs_old.(a) and new_a = arcs_new.(a') in
        if old_a.Signal_graph.arc_src <> new_a.Signal_graph.arc_src
           || old_a.Signal_graph.arc_dst <> new_a.Signal_graph.arc_dst then
          invalid_arg "Unfolding.patch: arc_map changes an arc's endpoints";
        mapped.(a') <- true;
        if old_a.Signal_graph.marked <> new_a.Signal_graph.marked
           || old_a.Signal_graph.disengageable <> new_a.Signal_graph.disengageable
        then begin
          note dropped l old_a;
          note spliced l' new_a
        end
      end)
    arc_map;
  Array.iteri (fun a' arc -> if not mapped.(a') then note spliced l' arc) arcs_new;
  let spliced = Array.of_list !spliced and dropped = Array.of_list !dropped in
  (* topological-order repair.  Removing arcs can never invalidate a
     valid order; only a spliced arc that runs {e backwards} against
     the base positions can.  When none does, the base order (and its
     position array) is reused as-is. *)
  let topo, topo_pos =
    if not (Array.exists (fun (s, d) -> t.topo_pos.(s) > t.topo_pos.(d)) spliced) then begin
      Tsg_engine.Metrics.incr "unfolding/topo_reused";
      (t.topo, t.topo_pos)
    end
    else
      match shift_window ~deadline t csrs spliced with
      | Some order_and_pos -> order_and_pos
      | None ->
        (* a cycle inside the window — impossible for a validated TSG,
           but a full re-sort is always a sound answer *)
        let topo = sort_topo ~deadline out_csr' in
        (topo, inverse topo)
  in
  Tsg_engine.Metrics.incr "unfolding/patched";
  (views l' csrs topo topo_pos, { pd_spliced = spliced; pd_dropped = dropped })

let pp_instance t ppf i =
  let e, p = event_of_instance t i in
  Fmt.pf ppf "%a@@%d" Event.pp (Signal_graph.event t.l.sg e) p
