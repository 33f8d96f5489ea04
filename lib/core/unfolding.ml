(* the instance space: everything an instance id depends on *)
type layout = {
  sg : Signal_graph.t;
  k : int; (* number of periods *)
  n_events : int;
  n_instances : int;
  rep_index : int array; (* event id -> dense repetitive index, or -1 *)
  rep_ids : int array; (* dense repetitive index -> event id *)
}

(* the in- or out-slices of one period's instances: row [li] belongs to
   the instance with period-local index [li], and [ids] are instance
   ids as they read in period [home] *)
type slices = { starts : int array; ids : int array; arcs : int array; home : int }

(* built once, by [make] or [patch], never mutated (so shared across
   domains as it is), and nothing in it grows with the period count *)
type t = {
  l : layout;
  in0 : slices;
  in1 : slices;
  in_steady : slices; (* home 2 *)
  out0 : slices;
  out_steady : slices; (* home 1, for 1 <= p <= k - 2 *)
  out_last : slices; (* home k - 1 *)
  order0 : int array; (* period 0's canonical order, period-local *)
  order1 : int array; (* period 1's, shared by every p >= 1 *)
  pos0 : int array; (* the inverses of the two orders *)
  pos1 : int array;
  delays : float array;
}

(* Instance ids are period-major: period 0 holds every event at its
   own id, period p >= 1 the repetitive events at n + (p-1)*r + their
   period-local index, the repetitive index. *)
let reps l = Array.length l.rep_ids
let base_of l p = if p = 0 then 0 else l.n_events + ((p - 1) * reps l)
let width l p = if p = 0 then l.n_events else reps l
let local l e p = if p = 0 then e else l.rep_index.(e)
let instance_id l ~event ~period = base_of l period + local l event period

(* Arc [u -> v] with marking [m] induces [u_(i-m) -> v_i] for [i] in
   [m, last l a]: every period of [v], or only [i = m] when the arc is
   disengageable or [u] is non-repetitive (none if [v_m] does not
   exist).  This depends only on the arc's endpoints, marking and
   disengageability plus the event classes and the period count. *)
let marking (a : Signal_graph.arc) = if a.marked then 1 else 0

let last l (a : Signal_graph.arc) =
  let m = marking a in
  let dst_periods = if Signal_graph.is_repetitive l.sg a.arc_dst then l.k else 1 in
  if a.disengageable || not (Signal_graph.is_repetitive l.sg a.arc_src) then
    if m < dst_periods then m else m - 1
  else dst_periods - 1

let iter_arc_instances_of l (a : Signal_graph.arc) f =
  let m = marking a in
  for i = m to last l a do
    f (instance_id l ~event:a.arc_src ~period:(i - m)) (instance_id l ~event:a.arc_dst ~period:i)
  done

(* The slice order is fixed (unfolding.mli): out-slices list arc id
   ascending, in-slices by source id, then arc id; it breaks
   longest-path ties.  Both are read off the graph's out-arcs in row
   order (source, then arc id), copied once into flat arrays so that
   every template pass reads memory sequentially. *)
type arc_rows = {
  first : int array; (* event -> its first entry; [first.(n)] ends the rows *)
  aid : int array;
  dst : int array; (* destination event *)
  mark : int array; (* marking, 0 or 1 *)
  upto : int array; (* [last] of the arc *)
}

let arc_rows l =
  let first, aid = Signal_graph.out_arc_rows l.sg in
  let m = Array.length aid in
  let rows = { first; aid; dst = Array.make m 0; mark = Array.make m 0; upto = Array.make m 0 } in
  Array.iteri
    (fun j id ->
      let a = Signal_graph.arc l.sg id in
      rows.dst.(j) <- a.arc_dst;
      rows.mark.(j) <- marking a;
      rows.upto.(j) <- last l a)
    aid;
  rows

(* [f li j] over period [sp]'s instances in id order and their out-arc
   entries, checking [deadline] every 1024 instances *)
let scan ~deadline l rows sp f =
  for li = 0 to width l sp - 1 do
    if li land 1023 = 0 then Tsg_engine.Deadline.check deadline;
    let e = if sp = 0 then li else l.rep_ids.(li) in
    for j = rows.first.(e) to rows.first.(e + 1) - 1 do
      f li j
    done
  done

(* a stable counting sort into rows [0, w): each lists the entries
   [iter] hands it, in the order [iter] calls [f row id arc] *)
let template ~home w iter =
  let starts = Array.make (w + 1) 0 in
  iter (fun row _ _ -> starts.(row + 1) <- starts.(row + 1) + 1);
  for i = 1 to w do
    starts.(i) <- starts.(i) + starts.(i - 1)
  done;
  let ids = Array.make starts.(w) 0 and arcs = Array.make starts.(w) 0 in
  let fill = Array.sub starts 0 w in
  iter (fun row id arc ->
      let j = fill.(row) in
      fill.(row) <- j + 1;
      ids.(j) <- id;
      arcs.(j) <- arc);
  { starts; ids; arcs; home }

let out_template ~deadline l rows q =
  template ~home:q (width l q) (fun f ->
      scan ~deadline l rows q (fun li j ->
          let m = rows.mark.(j) in
          if q + m <= rows.upto.(j) then
            f li (instance_id l ~event:rows.dst.(j) ~period:(q + m)) rows.aid.(j)))

(* sources read id ascending: source period q - m (m = 1 first), then
   event, then arc id *)
let in_template ~deadline l rows q =
  template ~home:q (width l q) (fun f ->
      for sp = max 0 (q - 1) to q do
        scan ~deadline l rows sp (fun li j ->
            if q - rows.mark.(j) = sp && q <= rows.upto.(j) then
              f (local l rows.dst.(j) q) (base_of l sp + li) rows.aid.(j))
      done)

(* The canonical order of every instance — {!Tsg_graph.Topo.sort}'s
   min-id Kahn order — is period-major, and period p >= 2 repeats
   period 1's order shifted by (p - 1) * r:

   - Arcs never lead to an earlier period (u_(i-m) -> v_i, m in {0,1},
     or u_0 -> v_m), and every period-p id is below every
     period-(p+1) id.
   - Suppose periods < p are emitted and some period-p instance is
     not.  The arcs among period-p instances are the unmarked ones,
     acyclic in an unfolding, so some unemitted period-p instance has
     every in-arc from an emitted instance: it is available, and
     every available instance of a later period has a larger id.  So
     Kahn emits all of period p before any later instance.
   - While it does, the earlier periods impose nothing more, so the
     period-p suffix is the min-id Kahn order of the arcs inside
     period p.  For p >= 1 those are the same arcs between repetitive
     events (u_p -> v_p for unmarked arcs that re-fire), and ids keep
     their rank under the shift.

   So two one-period sorts give the whole order. *)
let period_order ~deadline l outs q =
  let base = base_of l q and w = width l q and sh = (q - outs.home) * reps l in
  let succ v f =
    for j = outs.starts.(v) to outs.starts.(v + 1) - 1 do
      let d = outs.ids.(j) + sh - base in
      if d >= 0 && d < w then f d
    done
  in
  match
    Tsg_graph.Topo.sort_succ ~check:(fun () -> Tsg_engine.Deadline.check deadline) w succ
  with
  | Some order -> order
  | None -> invalid_arg "Unfolding: the unfolding has a cycle"

let inverse order =
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  pos

let delays_of sg = Array.map (fun (a : Signal_graph.arc) -> a.delay) (Signal_graph.arcs sg)

(* O(events + arcs), whatever the period count: in-templates of
   periods 0, 1 and 2, out-templates of periods 0, 1 and k - 1 (a
   small [k] leaves some empty or unread) and two one-period sorts *)
let build ~deadline sg ~periods =
  let n_events = Signal_graph.event_count sg in
  let rep_ids = Array.of_list (Signal_graph.repetitive_events sg) in
  let rep_index = Array.make n_events (-1) in
  Array.iteri (fun i e -> rep_index.(e) <- i) rep_ids;
  let n_instances = n_events + ((periods - 1) * Array.length rep_ids) in
  let l = { sg; k = periods; n_events; n_instances; rep_index; rep_ids } in
  let rows = arc_rows l in
  let in_t = in_template ~deadline l rows and out_t = out_template ~deadline l rows in
  let out0 = out_t 0 and out_steady = out_t 1 in
  let order0 = period_order ~deadline l out0 0 in
  let order1 = period_order ~deadline l out_steady 1 in
  {
    l;
    in0 = in_t 0;
    in1 = in_t 1;
    in_steady = in_t 2;
    out0;
    out_steady;
    out_last = out_t (max 1 (periods - 1));
    order0;
    order1;
    pos0 = inverse order0;
    pos1 = inverse order1;
    delays = delays_of sg;
  }

let make sg ~periods =
  if periods < 1 then invalid_arg "Unfolding.make: periods must be >= 1";
  Tsg_obs.Trace.with_span "unfolding/make" ~args:[ ("periods", string_of_int periods) ]
  @@ fun () ->
  let t = build ~deadline:(Tsg_engine.Deadline.current ()) sg ~periods in
  Tsg_engine.Metrics.incr "unfolding/built";
  Tsg_engine.Metrics.incr ~by:t.l.n_instances "unfolding/instances";
  t

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

let split t i =
  let n = t.l.n_events and r = reps t.l in
  if i < n then (0, i) else (1 + ((i - n) / r), (i - n) mod r)

let event_of_instance t i =
  let p, li = split t i in
  ((if p = 0 then li else t.l.rep_ids.(li)), p)

(* ------------------------------------------------------------------ *)
(* Periodic views                                                      *)

let period_base t p = base_of t.l p
let period_order t p = if p = 0 then t.order0 else t.order1
let in_slices t p = if p = 0 then t.in0 else if p = 1 then t.in1 else t.in_steady

let out_slices t p =
  if p = 0 then t.out0 else if p = t.l.k - 1 then t.out_last else t.out_steady

let shift t s p = (p - s.home) * reps t.l

let topo_position t i =
  let p, li = split t i in
  base_of t.l p + if p = 0 then t.pos0.(li) else t.pos1.(li)

let iter_topological t f =
  for p = 0 to t.l.k - 1 do
    let base = base_of t.l p in
    Array.iter (fun li -> f (base + li)) (period_order t p)
  done

let iter_row t slices_of v f =
  let p, li = split t v in
  let s = slices_of t p in
  let sh = shift t s p in
  for j = s.starts.(li) to s.starts.(li + 1) - 1 do
    f (s.ids.(j) + sh) s.arcs.(j)
  done

let iter_in t v f = iter_row t in_slices v f
let iter_out t v f = iter_row t out_slices v f
let iter_arc_instances t aid f = iter_arc_instances_of t.l (Signal_graph.arc t.l.sg aid) f

(* an instance is initial iff its in-slice is empty *)
let initial_instances t =
  List.filter
    (fun v ->
      let p, li = split t v in
      let s = in_slices t p in
      s.starts.(li) = s.starts.(li + 1))
    (List.init t.l.n_instances Fun.id)

let delays t = t.delays
let warm_caches (_ : t) = ()

(* ------------------------------------------------------------------ *)
(* Structural patching                                                 *)

type patch_delta = {
  pd_spliced : (int * int) array;
  pd_dropped : (int * int) array;
}

(* the arc instantiates as it did: same endpoints, marking and
   disengageability ([last] reads nothing else of the arc) *)
let same_instances (a : Signal_graph.arc) (b : Signal_graph.arc) =
  a.arc_src = b.arc_src && a.arc_dst = b.arc_dst && a.marked = b.marked
  && a.disengageable = b.disengageable

(* the edited graph's own build, plus the instance pairs that changed
   through [arc_map]: a surviving arc instantiates identically unless
   its marking or disengageability flipped (drop the old instances,
   splice the new); a removed arc drops its instances, an added one
   splices them *)
let rebuild ~deadline t g' ~arc_map =
  let arcs_old = Signal_graph.arcs t.l.sg and arcs_new = Signal_graph.arcs g' in
  let t' = build ~deadline g' ~periods:t.l.k in
  let dropped = ref [] and spliced = ref [] in
  let note acc l0 a = iter_arc_instances_of l0 a (fun s d -> acc := (s, d) :: !acc) in
  let mapped = Array.make (max (Array.length arcs_new) 1) false in
  Array.iteri
    (fun a a' ->
      if a' < 0 then note dropped t.l arcs_old.(a)
      else begin
        let old_a = arcs_old.(a) and new_a = arcs_new.(a') in
        if old_a.arc_src <> new_a.arc_src || old_a.arc_dst <> new_a.arc_dst then
          invalid_arg "Unfolding.patch: arc_map changes an arc's endpoints";
        mapped.(a') <- true;
        if not (same_instances old_a new_a) then begin
          note dropped t.l old_a;
          note spliced t'.l new_a
        end
      end)
    arc_map;
  Array.iteri (fun a' arc -> if not mapped.(a') then note spliced t'.l arc) arcs_new;
  (t', { pd_spliced = Array.of_list !spliced; pd_dropped = Array.of_list !dropped })

(* Instance ids never depend on the arc table, so the patched
   unfolding is the edited graph's build.  When no arc instance
   changes (the same arc ids, each instantiating as it did), that
   build is the base one with the edited graph and delays: the
   templates and orders are shared, and the delta is empty. *)
let patch t g' ~arc_map =
  if Signal_graph.event_count g' <> t.l.n_events then
    invalid_arg "Unfolding.patch: the edited graph has a different event set";
  for e = 0 to t.l.n_events - 1 do
    if Signal_graph.class_of g' e <> Signal_graph.class_of t.l.sg e then
      invalid_arg "Unfolding.patch: the edited graph changes an event class"
  done;
  let arcs_old = Signal_graph.arcs t.l.sg and arcs_new = Signal_graph.arcs g' in
  let m = Array.length arcs_old in
  if Array.length arc_map <> m then
    invalid_arg "Unfolding.patch: arc_map length differs from the base arc count";
  Tsg_obs.Trace.with_span "unfolding/patch" @@ fun () ->
  let rec delay_only a =
    a = m || (arc_map.(a) = a && same_instances arcs_old.(a) arcs_new.(a) && delay_only (a + 1))
  in
  let patched =
    if Array.length arcs_new = m && delay_only 0 then
      ( { t with l = { t.l with sg = g' }; delays = delays_of g' },
        { pd_spliced = [||]; pd_dropped = [||] } )
    else rebuild ~deadline:(Tsg_engine.Deadline.current ()) t g' ~arc_map
  in
  Tsg_engine.Metrics.incr "unfolding/patched";
  patched
