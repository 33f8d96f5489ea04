type edit = { arc : int; delta : float }

type change =
  | Delay of edit
  | Add_arc of { src : int; dst : int; delay : float; marked : bool }
  | Remove_arc of int
  | Set_marked of { arc : int; marked : bool }

type path = Short_circuit | Warm | Cold

type stats = { reused : int; resimulated : int; path : path }

(* roots whose warm repairs share one scan (see the warm kernel) *)
let lanes = 16

type t = {
  g : Signal_graph.t;
  digest : string;
  u : Unfolding.t;
  border_arr : int array;
      (* also the roots: a border event's period-0 instance is its id *)
  base : Cycle_time.report;
  (* the base run's occurrence times, roots in blocks of [lanes]: block
     k of width w holds root (k * lanes + r)'s time of instance v at
     [v * w + r], [neg_infinity] where the root never reached v *)
  base_blocks : float array array;
}

let signal_graph t = t.g
let base_report t = t.base
let border t = t.base.Cycle_time.border
let periods t = t.base.Cycle_time.periods_simulated
let digest t = t.digest

(* ------------------------------------------------------------------ *)
(* Preparation: one cold analysis that retains, per border event, the
   occurrence time of every instance in its event-initiated simulation
   ([neg_infinity] where it never reached one) — the warm-start
   baseline the dirty propagation below patches. *)

let prepare ?periods ?(jobs = 1) g =
  let deadline = Tsg_engine.Deadline.current () in
  let args =
    if Tsg_obs.Trace.enabled () then
      [
        ("events", string_of_int (Signal_graph.event_count g));
        ("arcs", string_of_int (Signal_graph.arc_count g));
        ("jobs", string_of_int jobs);
      ]
    else []
  in
  Tsg_obs.Trace.with_span "whatif_prepare" ~args @@ fun () ->
  Tsg_engine.Metrics.time_hist "whatif/prepare_ms" @@ fun () ->
  if Signal_graph.repetitive_count g = 0 then
    raise (Cycle_time.Not_analyzable "the graph has no repetitive events");
  let border = Cut_set.border g in
  let b = List.length border in
  if b = 0 then
    raise
      (Cycle_time.Not_analyzable "the graph has no border events (no initial activity)");
  let periods = match periods with Some p -> max 1 p | None -> b in
  let u = Unfolding.make g ~periods:(periods + 1) in
  Tsg_engine.Deadline.check deadline;
  let n = Unfolding.instance_count u in
  (* a period-0 instance id is its event id, so the border events are
     the roots, and each root's border index is looked up in O(1) *)
  let border_arr = Array.of_list border in
  let index = Array.make (Signal_graph.event_count g) (-1) in
  Array.iteri (fun i at -> index.(at) <- i) border_arr;
  let blocks = (b + lanes - 1) / lanes in
  let width k = min lanes (b - (k * lanes)) in
  let base_blocks = Array.init blocks (fun k -> Array.make (n * width k) neg_infinity) in
  let base_traces =
    Timing_sim.simulate_many ~jobs u ~roots:border_arr ~f:(fun at view ->
        (* each root writes only its own lane *)
        let idx = index.(at) in
        let w = width (idx / lanes) and block = base_blocks.(idx / lanes) in
        for i = 0 to n - 1 do
          if Timing_sim.view_reached view i then
            block.((i * w) + (idx mod lanes)) <- Timing_sim.view_time view i
        done;
        let g0, _ = Unfolding.event_of_instance u at in
        Cycle_time.Internal.trace_of_times
          (fun i -> Timing_sim.view_time view i)
          u periods g0)
  in
  let base =
    Cycle_time.Internal.finish g u ~border ~periods ~traces:(Array.to_list base_traces)
  in
  { g; digest = Signal_graph.digest g; u; border_arr; base; base_blocks }

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

(* A scenario of [change]s is applied once, up front, into the edited
   graph plus what [Unfolding.patch] and the seeds need.  Validation
   errors ([Invalid_argument]) and graphs that fail structural
   validation ([Cycle_time.Not_analyzable], e.g. an edit that
   disconnects the repetitive part) are raised here, from the {e same}
   code on the warm and cold sides — which is what makes failure
   outcomes byte-identical between the two. *)
type applied = {
  g' : Signal_graph.t;
  arc_map : int array;  (* base id -> new id, or -1 when removed *)
  changed_delays : int list;  (* surviving base arcs whose delay changed *)
  structural : bool;  (* an arc added, removed or re-marked *)
}

let apply_changes t changes =
  let arcs0 = Signal_graph.arcs t.g in
  let m = Array.length arcs0 in
  let n_events = Signal_graph.event_count t.g in
  let base_delays = Unfolding.delays t.u in
  let delays = Array.copy base_delays in
  let touched = Hashtbl.create 8 in
  let removed = Array.make (max m 1) false in
  let marked = Array.map (fun (a : Signal_graph.arc) -> a.Signal_graph.marked) arcs0 in
  let mark_edits = ref [] in
  let adds = ref [] (* reversed *) in
  let check_arc a =
    if a < 0 || a >= m then
      invalid_arg
        (Printf.sprintf "Whatif: arc id %d out of range (the graph has %d arcs)" a m)
  in
  List.iter
    (function
      | Delay { arc; delta } ->
        check_arc arc;
        if not (Float.is_finite delta) then
          invalid_arg (Printf.sprintf "Whatif: arc %d: delta must be finite" arc);
        delays.(arc) <- delays.(arc) +. delta;
        Hashtbl.replace touched arc ()
      | Remove_arc arc ->
        check_arc arc;
        if removed.(arc) then
          invalid_arg (Printf.sprintf "Whatif: arc %d removed twice in one scenario" arc);
        removed.(arc) <- true
      | Set_marked { arc; marked = mk } ->
        check_arc arc;
        marked.(arc) <- mk;
        mark_edits := arc :: !mark_edits
      | Add_arc { src; dst; delay; marked } ->
        let check_ev e =
          if e < 0 || e >= n_events then
            invalid_arg
              (Printf.sprintf "Whatif: event id %d out of range (the graph has %d events)"
                 e n_events)
        in
        check_ev src;
        check_ev dst;
        if (not (Float.is_finite delay)) || delay < 0. then
          invalid_arg
            (Printf.sprintf
               "Whatif: added arc %d -> %d: delay %g is invalid (delays must be \
                finite and >= 0)"
               src dst delay);
        adds := (src, dst, delay, marked) :: !adds)
    changes;
  (* a delay or marking edit naming a removed arc references a dead id *)
  let check_alive a =
    if removed.(a) then
      invalid_arg (Printf.sprintf "Whatif: edit references removed arc %d" a)
  in
  Hashtbl.iter (fun a () -> check_alive a) touched;
  List.iter check_alive !mark_edits;
  (* duplicate edits of one arc fold into a single delta; a sum that
     lands back on the base delay is no edit at all *)
  let changed_delays =
    Hashtbl.fold
      (fun a () acc ->
        if delays.(a) <> base_delays.(a) then begin
          if (not (Float.is_finite delays.(a))) || delays.(a) < 0. then
            invalid_arg
              (Printf.sprintf
                 "Whatif: arc %d: edited delay %g is invalid (delays must be \
                  finite and >= 0)"
                 a delays.(a));
          a :: acc
        end
        else acc)
      touched []
    |> List.sort compare
  in
  let structural =
    !adds <> []
    || Array.exists Fun.id removed
    || List.exists (fun a -> marked.(a) <> arcs0.(a).Signal_graph.marked) !mark_edits
  in
  (* surviving base arcs keep their relative order (so [arc_map] is
     monotone), additions are appended with the builder's
     auto-disengageable rule applied *)
  let arc_map = Array.make m (-1) in
  let next = ref 0 in
  for a = 0 to m - 1 do
    if not removed.(a) then begin
      arc_map.(a) <- !next;
      incr next
    end
  done;
  let g' =
    if not structural then Signal_graph.with_delays t.g delays
    else begin
      let surviving =
        List.filter_map
          (fun a ->
            if removed.(a) then None
            else Some { arcs0.(a) with Signal_graph.delay = delays.(a); marked = marked.(a) })
          (List.init m Fun.id)
      in
      let added =
        List.rev_map
          (fun (src, dst, delay, marked) -> Signal_graph.make_arc t.g ~marked ~delay src dst)
          !adds
      in
      match Signal_graph.with_arcs t.g (Array.of_list (surviving @ added)) with
      | Ok g' -> g'
      | Error errs ->
        raise
          (Cycle_time.Not_analyzable
             (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Signal_graph.pp_error) errs))
    end
  in
  { g'; arc_map; changed_delays; structural }

let edited_graph_changes t changes = (apply_changes t changes).g'

(* ------------------------------------------------------------------ *)
(* The warm kernel: incremental longest-path repair, one block of
   roots at a time.

   For root r, the base run left t_r(v) for every instance v
   ([neg_infinity] when r never reached v).  An edit — new delays,
   spliced or dropped arc instances — can only move the times of
   instances downstream of a seed: the destination of an edited,
   spliced or dropped arc instance.  The repair marks the seeds dirty
   and relaxes in topological-position order over the edited dag:

     t'_r(v) = max { t'_r(s) + d'(a) | s -a-> v }     (t'_r(root) = 0)

   Unreached sources carry [neg_infinity], which no sum can lift, so
   the same max decides reachability and time together — it flips
   correctly in both directions under a structural edit.  Relaxing a
   position only ever dirties {e larger} positions, so one monotone
   scan from the smallest dirty position visits every dirty node
   exactly once, after all its predecessors — no priority queue — and
   stops as soon as no marks remain ahead.

   The roots of a block are relaxed side by side: their base times sit
   interleaved ([v * width + lane]), so one scan, one adjacency read
   per arc and one dirty mark serve up to [lanes] roots.  A node is
   dirty when it may have moved for {e any} root of the block;
   recomputing it for the others reproduces their base value, since
   the max ranges over exactly the operands a cold simulation of the
   edited graph would use.  That is also why the repaired times are
   bit-for-bit those of a cold re-simulation. *)

let block_width t k = min lanes (Array.length t.border_arr - (k * lanes))

type scratch = {
  mutable s_epoch : int;
  s_stamp : int array;  (* instance -> epoch its repaired row belongs to *)
  s_row : int array;  (* instance -> row in [s_rows], valid where stamped *)
  s_dirty : int array;  (* instance -> epoch it was marked dirty *)
  mutable s_rows : float array;  (* repaired rows, [row * width + lane] *)
}

let scratch t =
  let n = Unfolding.instance_count t.u in
  {
    s_epoch = 0;
    s_stamp = Array.make n 0;
    s_row = Array.make n 0;
    s_dirty = Array.make n 0;
    s_rows = Array.make (64 * lanes) 0.;
  }

(* dst.(o + r) <- max dst.(o + r) (src.(so + r) + d) for every lane r,
   with [d] the delay of arc [a]; functions of their own so the lane
   loop keeps its operands in registers (and [d] unboxed) *)
let relax (dst : float array) o (src : float array) so (delays : float array) a w =
  let d = Array.unsafe_get delays a in
  for r = 0 to w - 1 do
    let c = Array.unsafe_get src (so + r) +. d in
    if c > Array.unsafe_get dst (o + r) then Array.unsafe_set dst (o + r) c
  done

(* the first in-arc's sums seed the row: the same values a max
   against [neg_infinity] would give *)
let seed (dst : float array) o (src : float array) so (delays : float array) a w =
  let d = Array.unsafe_get delays a in
  for r = 0 to w - 1 do
    Array.unsafe_set dst (o + r) (Array.unsafe_get src (so + r) +. d)
  done

(* repair block [blk] over the edited unfolding [u]; afterwards
   {!repaired_times} reads the block's times.  The scan walks the
   periods from the smallest dirty position, each through its
   canonical order, and reads the period's slice templates plus their
   id shifts, as the cold kernel does. *)
let repair ~deadline t sc ~u ~seeds blk =
  let w = block_width t blk in
  let delays = Unfolding.delays u in
  let base = t.base_blocks.(blk) in
  sc.s_epoch <- sc.s_epoch + 1;
  let epoch = sc.s_epoch in
  let stamp = sc.s_stamp and row = sc.s_row and dirty = sc.s_dirty in
  let n_events = Signal_graph.event_count t.g in
  let rows_used = ref 0 in
  let pending = ref 0 in
  let lo = ref max_int in
  Array.iter
    (fun (_, d) ->
      if dirty.(d) <> epoch then begin
        dirty.(d) <- epoch;
        incr pending;
        lo := min !lo (Unfolding.topo_position u d)
      end)
    seeds;
  (* The indices below are structurally in-bounds (templates and
     orders built by Unfolding over [0, n), rows of width [w]), so the
     hot loop reads unchecked. *)
  let steps = ref 0 and scanned = ref 0 in
  let p0, k0 = if !pending > 0 then Unfolding.split u !lo else (0, 0) in
  let p = ref p0 and k = ref k0 in
  while !pending > 0 do
    let order = Unfolding.period_order u !p and vbase = Unfolding.period_base u !p in
    let ins = Unfolding.in_slices u !p and outs = Unfolding.out_slices u !p in
    let in_shift = Unfolding.shift u ins !p and out_shift = Unfolding.shift u outs !p in
    let in_starts = ins.Unfolding.starts and in_srcs = ins.Unfolding.ids in
    let in_arcs = ins.Unfolding.arcs in
    let out_starts = outs.Unfolding.starts and out_dsts = outs.Unfolding.ids in
    while !pending > 0 && !k < Array.length order do
      if !scanned land 8191 = 0 then Tsg_engine.Deadline.check deadline;
      incr scanned;
      let li = Array.unsafe_get order !k in
      let v = vbase + li in
      if Array.unsafe_get dirty v = epoch then begin
        decr pending;
        incr steps;
        (* recompute v straight into the next free row, which is kept
           only if it differs from the base row *)
        if (!rows_used + 1) * w > Array.length sc.s_rows then begin
          let grown = Array.make (2 * Array.length sc.s_rows) 0. in
          Array.blit sc.s_rows 0 grown 0 (!rows_used * w);
          sc.s_rows <- grown
        end;
        let rows = sc.s_rows and o = !rows_used * w in
        let j0 = Array.unsafe_get in_starts li and j1 = Array.unsafe_get in_starts (li + 1) in
        if j0 = j1 then
          for r = 0 to w - 1 do
            Array.unsafe_set rows (o + r) neg_infinity
          done;
        for j = j0 to j1 - 1 do
          let s = Array.unsafe_get in_srcs j + in_shift in
          let a = Array.unsafe_get in_arcs j in
          let src = if Array.unsafe_get stamp s = epoch then rows else base in
          let so = if src == rows then Array.unsafe_get row s * w else s * w in
          if j = j0 then seed rows o src so delays a w else relax rows o src so delays a w
        done;
        (* a root (a period-0 instance, id < event count) is anchored
           at time 0 in its own lane *)
        if v < n_events then
          for r = 0 to w - 1 do
            if t.border_arr.((blk * lanes) + r) = v then Array.unsafe_set rows (o + r) 0.
          done;
        let changed = ref false in
        for r = 0 to w - 1 do
          if Array.unsafe_get rows (o + r) <> Array.unsafe_get base ((v * w) + r) then
            changed := true
        done;
        if !changed then begin
          Array.unsafe_set stamp v epoch;
          Array.unsafe_set row v !rows_used;
          incr rows_used;
          for j = Array.unsafe_get out_starts li to Array.unsafe_get out_starts (li + 1) - 1 do
            let x = Array.unsafe_get out_dsts j + out_shift in
            if Array.unsafe_get dirty x <> epoch then begin
              Array.unsafe_set dirty x epoch;
              incr pending
            end
          done
        end
      end;
      incr k
    done;
    incr p;
    k := 0
  done;
  Tsg_engine.Metrics.incr ~by:!steps "whatif/instances_repaired"

(* root [idx]'s times after its block's {!repair}, read as a cold
   simulation's view would: [0.] when unreached *)
let repaired_times t sc idx =
  let k = idx / lanes in
  let w = block_width t k and lane = idx mod lanes in
  let base = t.base_blocks.(k) and epoch = sc.s_epoch in
  fun v ->
    let x =
      if sc.s_stamp.(v) = epoch then sc.s_rows.((sc.s_row.(v) * w) + lane)
      else base.((v * w) + lane)
    in
    if x = neg_infinity then 0. else x

(* ------------------------------------------------------------------ *)
(* Re-analysis                                                         *)

let short_circuit t =
  let b = Array.length t.border_arr in
  Tsg_engine.Metrics.incr "whatif/short_circuits";
  Tsg_engine.Metrics.incr ~by:b "whatif/reused";
  (t.base, { reused = b; resimulated = 0; path = Short_circuit })

(* a full cold analysis of the edited graph: the fallback whenever the
   warm kernel cannot (or is told not to) answer *)
let cold t ap =
  if ap.structural then Tsg_engine.Metrics.incr "whatif/structural_cold";
  let report = Cycle_time.analyze ~periods:(periods t) ap.g' in
  (report, { reused = 0; resimulated = Array.length t.border_arr; path = Cold })

(* the (src, dst) instance pairs of base arcs [arcs], enumerated from
   each arc and the period count *)
let arc_instances t arcs =
  let acc = ref [] in
  List.iter (fun a -> Unfolding.iter_arc_instances t.u a (fun s d -> acc := (s, d) :: !acc)) arcs;
  Array.of_list (List.rev !acc)

(* The warm re-analysis.  An edit changes the unfolding's arcs and
   delays but not its instance ids ({!Unfolding.patch}; a delay edit
   shares the base templates outright), so the base tables remain a
   valid starting point.  The seeds are the spliced and dropped arc
   instances plus the instances of surviving arcs whose delay changed
   (read from the base grouping — instance ids are stable), and the
   repair runs over the patched dag.  A root whose base run reached
   the source of no seed cannot observe the edit (a dropped or spliced
   arc instance with an unreached source contributes nothing before
   or after), so its trace is reused verbatim; a block with no
   affected root is never scanned. *)
let warm ~deadline sc t ap =
  let u, delta = Unfolding.patch t.u ap.g' ~arc_map:ap.arc_map in
  let sp = delta.Unfolding.pd_spliced and dr = delta.Unfolding.pd_dropped in
  if ap.structural then begin
    Tsg_engine.Metrics.incr ~by:(Array.length sp) "whatif/instances_spliced";
    Tsg_engine.Metrics.incr ~by:(Array.length dr) "whatif/instances_dropped";
    Tsg_engine.Metrics.incr "whatif/structural_warm"
  end;
  let seeds = Array.concat [ sp; dr; arc_instances t ap.changed_delays ] in
  let b = Array.length t.border_arr in
  let affected = Array.make b false in
  Array.iteri
    (fun k base ->
      let w = block_width t k in
      Array.iter
        (fun (s, _) ->
          for r = 0 to w - 1 do
            if base.((s * w) + r) > neg_infinity then affected.((k * lanes) + r) <- true
          done)
        seeds)
    t.base_blocks;
  let traces = Array.of_list t.base.Cycle_time.traces in
  for k = 0 to Array.length t.base_blocks - 1 do
    let first = k * lanes in
    let last = first + block_width t k - 1 in
    let any = ref false in
    for idx = first to last do
      if affected.(idx) then any := true
    done;
    if !any then begin
      repair ~deadline t sc ~u ~seeds k;
      for idx = first to last do
        if affected.(idx) then begin
          (* a root whose sampled times all held keeps its base trace
             (equal by value, and nothing to allocate) *)
          let time_of = repaired_times t sc idx and g0 = t.border_arr.(idx) in
          let moved (sm : Cycle_time.sample) =
            time_of (Unfolding.instance u ~event:g0 ~period:sm.period) <> sm.time
          in
          if List.exists moved traces.(idx).samples then
            traces.(idx) <- Cycle_time.Internal.trace_of_times time_of u (periods t) g0
        end
      done
    end
  done;
  let resimulated = Array.fold_left (fun n a -> if a then n + 1 else n) 0 affected in
  let reused = b - resimulated in
  Tsg_engine.Metrics.incr ~by:reused "whatif/reused";
  Tsg_engine.Metrics.incr ~by:resimulated "whatif/resimulated";
  let report =
    Cycle_time.Internal.finish ap.g' u ~border:(border t) ~periods:(periods t)
      ~traces:(Array.to_list traces)
  in
  (report, { reused; resimulated; path = Warm })

(* An edit that folds back onto the base graph short-circuits.  For a
   delay edit the per-arc compare sees most of these, and the digest
   guard catches exact repeats it cannot (distinct delay spellings
   with one canonical form).  Structural no-ops (remove+re-add of an
   identical arc table) are detected by literal arc-table equality,
   NOT by digest: the canonical form is declaration-order-insensitive,
   so a digest match could hide a permutation of arc ids — and arc ids
   appear in the report's critical walk. *)
let is_no_op t ap =
  if ap.structural then Signal_graph.arcs ap.g' = Signal_graph.arcs t.g
  else ap.changed_delays = [] || Signal_graph.digest ap.g' = t.digest

let reanalyze_changes ?scratch:sc t changes =
  let deadline = Tsg_engine.Deadline.current () in
  Tsg_engine.Metrics.time_hist "whatif/reanalyze_ms" @@ fun () ->
  let args =
    if Tsg_obs.Trace.enabled () then
      [ ("edits", string_of_int (List.length changes)) ]
    else []
  in
  Tsg_obs.Trace.with_span "whatif_reanalyze" ~args @@ fun () ->
  let ap = apply_changes t changes in
  if is_no_op t ap then short_circuit t
  else begin
    match Tsg_obs.Failpoint.hit "whatif/warm" with
    | exception Tsg_obs.Failpoint.Injected _ ->
      (* warm path disabled by fault injection: fall back to a full
         cold analysis of the edited graph — same report, no reuse *)
      Tsg_engine.Metrics.incr "whatif/cold_fallbacks";
      cold t ap
    | () ->
      (* a delay edit never moves the border.  When a structural one
         does, the prepared roots, traces and per-root tables describe
         the wrong simulation set: the only sound warm answer is none
         at all *)
      if ap.structural && Cut_set.border ap.g' <> border t then cold t ap
      else warm ~deadline (match sc with Some s -> s | None -> scratch t) t ap
  end

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

let sweep_changes ?budget_ms ?(jobs = 1) t scenarios =
  Tsg_engine.Batch.run ~jobs ?deadline_ms:budget_ms
    ~with_ctx:(fun k -> k (scratch t))
    ~label:(fun _ -> "")
    ~f:(fun scratch changes ->
      match reanalyze_changes ?scratch t changes with
      | result -> Ok result
      | exception Invalid_argument msg -> Error msg
      | exception Cycle_time.Not_analyzable msg ->
        Error (Printf.sprintf "not analyzable: %s" msg))
    (Array.to_list scenarios)
  |> List.map (fun (e : _ Tsg_engine.Batch.entry) -> (e.outcome, e.elapsed_ms))
  |> Array.of_list
