type result = {
  time : float array;
  pred_instance : int array;
  pred_arc : int array;
  reached : bool array;
}

(* ------------------------------------------------------------------ *)
(* Scratch arenas                                                      *)

(* The kernel below runs once per border event and dominates the
   O(b^2 m) algorithm, so it must not allocate: all per-query state
   lives in an epoch-stamped arena that is reused across queries.  A
   node is part of the current query iff its stamp equals the arena's
   epoch, so starting a new query is one integer increment — no
   clearing pass over any of the four arrays. *)
module Workspace = struct
  type t = {
    mutable time : float array;
    mutable pred_instance : int array;
    mutable pred_arc : int array;
    mutable stamp : int array;
    mutable epoch : int;
  }

  let resize t n =
    t.time <- Array.make n neg_infinity;
    t.pred_instance <- Array.make n (-1);
    t.pred_arc <- Array.make n (-1);
    t.stamp <- Array.make n 0;
    t.epoch <- 0

  let capacity t = Array.length t.stamp

  (* a very large analysis would otherwise pin four max-size arrays in
     every arena it ever touched, for the life of the process; releasing
     shrinks back to this bound (256k instances ≈ 8 MiB of arrays) so
     retained memory stays bounded while ordinary workloads never pay a
     reallocation *)
  let retained_capacity = 1 lsl 18

  (* One process-wide free list, most recently released first.  An
     arena taken from it belongs to its taker until released, so pool
     workers, daemon systhreads and nested queries each hold their own
     without a per-arena lock; the list's lock is held for a few
     instructions only.  It keeps one arena per domain that can run a
     {!simulate_many} participant, plus one for a nested or concurrent
     query; an arena released past that is dropped. *)
  let lock = Mutex.create ()
  let free = ref []
  let max_free = Tsg_engine.Pool.recommended () + 1

  let take () =
    Mutex.lock lock;
    let r =
      match !free with
      | [] -> None
      | ws :: rest ->
        free := rest;
        Some ws
    in
    Mutex.unlock lock;
    r

  let release ws =
    if capacity ws > retained_capacity then resize ws retained_capacity;
    Mutex.lock lock;
    if List.length !free < max_free then free := ws :: !free;
    Mutex.unlock lock

  let with_arena n f =
    let ws =
      match take () with
      | Some ws when capacity ws >= n ->
        Tsg_engine.Metrics.incr "kernel/arenas_reused";
        ws
      | taken ->
        Tsg_engine.Metrics.incr "kernel/arenas_created";
        let ws =
          Option.value taken
            ~default:{ time = [||]; pred_instance = [||]; pred_arc = [||]; stamp = [||]; epoch = 0 }
        in
        resize ws (max n 1);
        ws
    in
    Fun.protect ~finally:(fun () -> release ws) (fun () -> f ws)
end

(* ------------------------------------------------------------------ *)
(* The fused, windowed kernel                                          *)

(* One pass over the topological suffix [from_pos ..]: reachability is
   decided during the relaxation itself (a node is reached iff it is a
   root or one of its in-arcs leaves a reached node), so the separate
   forward DFS of the old kernel — and its O(n) seen/stack arrays —
   are gone.  Each node is finalised the moment its topo position is
   scanned, which also gives the root test for free: only roots are
   stamped before their own visit.  Tie-breaking matches the old
   kernel exactly (first in-arc establishes, later arcs must strictly
   improve), so results are byte-identical.

   The suffix is walked period by period ({!Unfolding.period_order}),
   reading each instance's row of its period's in-slice template plus
   the period's id shift: the template is O(events + arcs), so it
   stays cache-resident however many periods the unfolding has. *)
(* cancellation granularity: the scan pauses for a deadline check
   every [check_block] topo positions, so the inner relaxation loop
   stays branch-free and the check cost is amortised to nothing *)
let check_block = 4096

let kernel ~deadline (ws : Workspace.t) u ~roots ~from_pos =
  let delays = Unfolding.delays u in
  ws.Workspace.epoch <- ws.Workspace.epoch + 1;
  let epoch = ws.Workspace.epoch in
  let time = ws.Workspace.time in
  let pred = ws.Workspace.pred_instance in
  let parc = ws.Workspace.pred_arc in
  let stamp = ws.Workspace.stamp in
  List.iter
    (fun r ->
      stamp.(r) <- epoch;
      time.(r) <- 0.;
      pred.(r) <- -1;
      parc.(r) <- -1)
    roots;
  let p0, k0 = if from_pos = 0 then (0, 0) else Unfolding.split u from_pos in
  let until_check = ref 0 in
  for p = p0 to Unfolding.periods u - 1 do
    let order = Unfolding.period_order u p and base = Unfolding.period_base u p in
    let s = Unfolding.in_slices u p in
    let shift = Unfolding.shift u s p in
    let starts = s.Unfolding.starts and ids = s.Unfolding.ids and arcs = s.Unfolding.arcs in
    let len = Array.length order in
    let k0 = ref (if p = p0 then k0 else 0) in
    while !k0 < len do
      if !until_check <= 0 then begin
        Tsg_engine.Deadline.check deadline;
        until_check := check_block
      end;
      let hi = min len (!k0 + !until_check) in
      until_check := !until_check - (hi - !k0);
      (* every index is in bounds by construction (templates and
         orders over one period, the arena sized to the unfolding,
         [delays] one per arc of the unfolding's graph), so
         the scan reads unchecked; the running maximum lives in
         registers and is stored once per instance *)
      for k = !k0 to hi - 1 do
        let li = Array.unsafe_get order k in
        let v = base + li in
        if Array.unsafe_get stamp v <> epoch then begin
          let best = ref 0. and bp = ref (-1) and ba = ref (-1) in
          for j = Array.unsafe_get starts li to Array.unsafe_get starts (li + 1) - 1 do
            let src = Array.unsafe_get ids j + shift in
            if Array.unsafe_get stamp src = epoch then begin
              let a = Array.unsafe_get arcs j in
              let d = Array.unsafe_get time src +. Array.unsafe_get delays a in
              if !bp < 0 || d > !best then begin
                best := d;
                bp := src;
                ba := a
              end
            end
          done;
          if !bp >= 0 then begin
            Array.unsafe_set time v !best;
            Array.unsafe_set pred v !bp;
            Array.unsafe_set parc v !ba;
            Array.unsafe_set stamp v epoch
          end
        end
      done;
      k0 := hi
    done
  done

(* copy the arena out into a caller-owned [result]; unreached
   instances get the historical defaults (time 0, predecessors -1) *)
let materialise (ws : Workspace.t) u =
  let n = Unfolding.instance_count u in
  let epoch = ws.Workspace.epoch in
  let stamp = ws.Workspace.stamp in
  let time = Array.make n 0. in
  let pred_instance = Array.make n (-1) in
  let pred_arc = Array.make n (-1) in
  let reached = Array.make n false in
  for v = 0 to n - 1 do
    if stamp.(v) = epoch then begin
      time.(v) <- ws.Workspace.time.(v);
      pred_instance.(v) <- ws.Workspace.pred_instance.(v);
      pred_arc.(v) <- ws.Workspace.pred_arc.(v);
      reached.(v) <- true
    end
  done;
  { time; pred_instance; pred_arc; reached }

(* ------------------------------------------------------------------ *)
(* Borrowed views                                                      *)

type view = { vw : Workspace.t; vn : int }

let view_time v i =
  if i < v.vn && v.vw.Workspace.stamp.(i) = v.vw.Workspace.epoch then
    v.vw.Workspace.time.(i)
  else 0.

let view_reached v i =
  i < v.vn && v.vw.Workspace.stamp.(i) = v.vw.Workspace.epoch

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let observe_window u ~from_pos =
  let n = Unfolding.instance_count u in
  Tsg_engine.Metrics.incr ~by:(n - from_pos) "kernel/instances_scanned";
  Tsg_engine.Metrics.incr ~by:n "kernel/instances_total"

(* span arguments are only worth naming events for when someone is
   actually recording *)
let span_args u ~at ~from_pos =
  if Tsg_obs.Trace.enabled () then begin
    let event, period = Unfolding.event_of_instance u at in
    let n = Unfolding.instance_count u in
    [
      ("event", Event.to_string (Signal_graph.event (Unfolding.signal_graph u) event));
      ("period", string_of_int period);
      ("scanned", string_of_int (n - from_pos));
      ("total", string_of_int n);
    ]
  end
  else []

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let simulate u =
  let deadline = Tsg_engine.Deadline.current () in
  Tsg_engine.Metrics.incr "simulations/full";
  observe_window u ~from_pos:0;
  Tsg_obs.Trace.with_span "longest_paths" ~args:[ ("kind", "full") ] @@ fun () ->
  Workspace.with_arena (Unfolding.instance_count u) @@ fun ws ->
  kernel ~deadline ws u ~roots:(Unfolding.initial_instances u) ~from_pos:0;
  materialise ws u

let check_instance u what i =
  if i < 0 || i >= Unfolding.instance_count u then
    invalid_arg (Printf.sprintf "Timing_sim: %s %d is not an instance" what i)

let initiated_into ~deadline ws u ~at =
  check_instance u "at" at;
  let from_pos = Unfolding.topo_position u at in
  Tsg_engine.Metrics.incr "simulations/initiated";
  observe_window u ~from_pos;
  Tsg_obs.Trace.with_span "longest_paths" ~args:(span_args u ~at ~from_pos)
  @@ fun () -> kernel ~deadline ws u ~roots:[ at ] ~from_pos

let simulate_initiated u ~at =
  let deadline = Tsg_engine.Deadline.current () in
  Workspace.with_arena (Unfolding.instance_count u) @@ fun ws ->
  initiated_into ~deadline ws u ~at;
  materialise ws u

(* the predecessor chain read straight out of the arena: nothing the
   size of the unfolding is copied for one path *)
let backtrack u ~at ~instance =
  check_instance u "instance" instance;
  let deadline = Tsg_engine.Deadline.current () in
  Workspace.with_arena (Unfolding.instance_count u) @@ fun ws ->
  initiated_into ~deadline ws u ~at;
  let reached v = ws.Workspace.stamp.(v) = ws.Workspace.epoch in
  let rec back v acc =
    let p = if reached v then ws.Workspace.pred_instance.(v) else -1 in
    if p < 0 then (v, None) :: acc
    else back p ((v, Some ws.Workspace.pred_arc.(v)) :: acc)
  in
  back instance []

let simulate_many ?(jobs = 1) u ~roots ~f =
  let nroots = Array.length roots in
  if nroots = 0 then [||]
  else begin
    let deadline = Tsg_engine.Deadline.current () in
    let n = Unfolding.instance_count u in
    (* self-scheduling workers: each participant acquires an
       arena once (the [with_ctx] bracket), then claims border events
       one at a time from a shared atomic index — no tail chunk to
       serialize behind, no per-chunk arena set-up.  Claims are
       size-ordered, heaviest window first (smallest topo position =
       largest scan), so a straggler simulation starts early instead
       of landing last on one worker while the others drain small
       items and idle. *)
    let order =
      if jobs <= 1 || nroots <= 1 then None
      else begin
        let pos = Array.map (Unfolding.topo_position u) roots in
        let idx = Array.init nroots Fun.id in
        Array.sort
          (fun a b ->
            let c = compare pos.(a) pos.(b) in
            if c <> 0 then c else compare a b)
          idx;
        Some idx
      end
    in
    (* the deadline read above is shared by every participant: when
       it trips, each raises at its next per-claim check (the kernel
       checks at the top of every window) and Pool.map_claims
       propagates the smallest failing index after all claims settle
       — the pool itself stays healthy and reusable *)
    Tsg_engine.Pool.map_claims ~jobs ?order
      ~with_ctx:(fun k -> Workspace.with_arena n k)
      ~f:(fun ws at ->
        initiated_into ~deadline ws u ~at;
        f at { vw = ws; vn = n })
      roots
  end

(* ------------------------------------------------------------------ *)
(* Derived quantities                                                  *)

let occurrence_times u r ~event =
  let sg = Unfolding.signal_graph u in
  let k = if Signal_graph.is_repetitive sg event then Unfolding.periods u else 1 in
  Array.init k (fun period -> r.time.(Unfolding.instance u ~event ~period))

let average_occurrence_distance u r ~event ~period =
  r.time.(Unfolding.instance u ~event ~period) /. float_of_int (period + 1)

let initiated_average_distance u r ~event ~period =
  if period = 0 then
    invalid_arg "Timing_sim.initiated_average_distance: period must be > 0";
  r.time.(Unfolding.instance u ~event ~period) /. float_of_int period

let critical_path _u r ~instance =
  let rec back v acc =
    let entering =
      if r.pred_instance.(v) < 0 then None else Some r.pred_arc.(v)
    in
    let acc = (v, entering) :: acc in
    if r.pred_instance.(v) < 0 then acc else back r.pred_instance.(v) acc
  in
  back instance []
