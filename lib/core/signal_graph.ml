type event_class = Initial | Non_repetitive | Repetitive

type arc = {
  arc_src : int;
  arc_dst : int;
  delay : float;
  marked : bool;
  disengageable : bool;
}

module Event_table = Hashtbl.Make (struct
  type t = Event.t

  let equal = Event.equal
  let hash = Event.hash
end)

type t = {
  events : Event.t array;
  classes : event_class array;
  arc_table : arc array;
  out_rows : int array * int array;  (* CSR by source: starts, arc ids *)
  in_rows : int array * int array;  (* CSR by target *)
  index : int Event_table.t;
  repetitive : int list;
  initial : int list;
  signal_names : string list;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

(* growable arrays, filled in declaration order: event ids are
   positions in [b_events], arc ids positions in [b_arcs] *)
type builder = {
  b_index : int Event_table.t;
  mutable b_events : Event.t array;
  mutable b_classes : event_class array;
  mutable b_count : int;
  mutable b_arcs : arc array;
  mutable b_arc_count : int;
}

let builder () =
  {
    b_index = Event_table.create 64;
    b_events = [||];
    b_classes = [||];
    b_count = 0;
    b_arcs = [||];
    b_arc_count = 0;
  }

(* [a] with room for index [n], doubled when full; [fill] pads *)
let grow a n fill =
  if n < Array.length a then a
  else begin
    let a' = Array.make (max 16 (2 * n)) fill in
    Array.blit a 0 a' 0 n;
    a'
  end

let intern b ev cls =
  match Event_table.find_opt b.b_index ev with
  | Some i -> i
  | None ->
    let i = b.b_count in
    Event_table.add b.b_index ev i;
    b.b_events <- grow b.b_events i ev;
    b.b_classes <- grow b.b_classes i cls;
    b.b_events.(i) <- ev;
    b.b_classes.(i) <- cls;
    b.b_count <- i + 1;
    i

let add_event b ev cls =
  if Event_table.mem b.b_index ev then
    invalid_arg
      (Printf.sprintf "Signal_graph.add_event: duplicate event %s" (Event.to_string ev));
  ignore (intern b ev cls)

let builder_class b i =
  if i < 0 || i >= b.b_count then
    invalid_arg (Printf.sprintf "Signal_graph.builder_class: id %d out of range" i);
  b.b_classes.(i)

let add_arc_id b ~marked ~disengageable ~delay src dst =
  let src_cls = builder_class b src and dst_cls = builder_class b dst in
  let disengageable =
    disengageable || (src_cls <> Repetitive && dst_cls = Repetitive)
  in
  let a = { arc_src = src; arc_dst = dst; delay; marked; disengageable } in
  b.b_arcs <- grow b.b_arcs b.b_arc_count a;
  b.b_arcs.(b.b_arc_count) <- a;
  b.b_arc_count <- b.b_arc_count + 1

let builder_id b ev =
  match Event_table.find_opt b.b_index ev with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Signal_graph.add_arc: undeclared event %s" (Event.to_string ev))

let add_arc b ?(marked = false) ?(disengageable = false) ~delay u v =
  let src = builder_id b u in
  let dst = builder_id b v in
  add_arc_id b ~marked ~disengageable ~delay src dst

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

type error =
  | Negative_delay of Event.t * Event.t * float
  | Marked_disengageable of Event.t * Event.t
  | Disengageable_from_repetitive of Event.t * Event.t
  | Repetitive_to_non_repetitive of Event.t * Event.t
  | Initial_event_with_in_arc of Event.t
  | Repetitive_part_not_strongly_connected
  | Unmarked_cycle of Event.t list

let pp_error ppf = function
  | Negative_delay (u, v, d) ->
    Fmt.pf ppf "arc %a -> %a has negative delay %g" Event.pp u Event.pp v d
  | Marked_disengageable (u, v) ->
    Fmt.pf ppf "arc %a -> %a is both marked and disengageable (it constrains nothing)"
      Event.pp u Event.pp v
  | Disengageable_from_repetitive (u, v) ->
    Fmt.pf ppf "disengageable arc %a -> %a leaves a repetitive event" Event.pp u Event.pp v
  | Repetitive_to_non_repetitive (u, v) ->
    Fmt.pf ppf
      "arc %a -> %a from a repetitive to a non-repetitive event is unbounded" Event.pp u
      Event.pp v
  | Initial_event_with_in_arc e ->
    Fmt.pf ppf "initial event %a has an in-arc" Event.pp e
  | Repetitive_part_not_strongly_connected ->
    Fmt.pf ppf "the repetitive part of the graph is not strongly connected"
  | Unmarked_cycle evs ->
    Fmt.pf ppf "token-free cycle (the graph is not live): %a"
      Fmt.(list ~sep:(any " -> ") Event.pp)
      evs

(* the front end's share of a request budget: one ambient-deadline
   check per 8192 arcs or vertices *)
let tick i = if i land 8191 = 0 then Tsg_engine.Deadline.(check (current ()))

(* a stable counting sort of the [m] items [item 0 .. item (m - 1)]
   by [key] (values in [0 .. buckets - 1]): the bucket starts
   ([buckets + 1] of them) and the items in order *)
let counting_sort m item key buckets =
  let starts = Array.make (buckets + 1) 0 in
  for j = 0 to m - 1 do
    let k = key (item j) + 1 in
    starts.(k) <- starts.(k) + 1
  done;
  for k = 0 to buckets - 1 do
    starts.(k + 1) <- starts.(k + 1) + starts.(k)
  done;
  let next = Array.sub starts 0 buckets and sorted = Array.make m 0 in
  for j = 0 to m - 1 do
    let i = item j in
    let k = key i in
    sorted.(next.(k)) <- i;
    next.(k) <- next.(k) + 1
  done;
  (starts, sorted)

(* compressed sparse rows: the arcs with [key a = v] are
   [ids.(starts.(v)) .. ids.(starts.(v + 1) - 1)], in arc-id order *)
let csr n arc_table key =
  counting_sort (Array.length arc_table) Fun.id (fun i -> key arc_table.(i)) n

(* every repetitive event reachable from [root] along arcs between
   repetitive events, walking the rows [starts]/[ids] towards [far] *)
let reaches_all classes arc_table (starts, ids) far root rep_count =
  let n = Array.length classes in
  let seen = Array.make n false and stack = Array.make n 0 in
  let top = ref 1 and count = ref 1 in
  seen.(root) <- true;
  stack.(0) <- root;
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    for j = starts.(v) to starts.(v + 1) - 1 do
      let w = far arc_table.(ids.(j)) in
      if classes.(w) = Repetitive && not seen.(w) then begin
        seen.(w) <- true;
        incr count;
        stack.(!top) <- w;
        incr top
      end
    done
  done;
  !count = rep_count

(* Kahn over the unmarked arcs with a FIFO: [None] when live,
   [Some stuck] when a token-free cycle leaves the vertices with
   [stuck.(v) = true] (on or downstream of a cycle) unemitted *)
let unmarked_residue n arc_table (starts, ids) =
  let in_deg = Array.make n 0 in
  Array.iter
    (fun a -> if not a.marked then in_deg.(a.arc_dst) <- in_deg.(a.arc_dst) + 1)
    arc_table;
  let queue = Array.make n 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if in_deg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    tick !head;
    let v = queue.(!head) in
    incr head;
    for j = starts.(v) to starts.(v + 1) - 1 do
      let a = arc_table.(ids.(j)) in
      if not a.marked then begin
        let w = a.arc_dst in
        in_deg.(w) <- in_deg.(w) - 1;
        if in_deg.(w) = 0 then begin
          queue.(!tail) <- w;
          incr tail
        end
      end
    done
  done;
  if !tail = n then None else Some (Array.map (fun d -> d > 0) in_deg)

(* the vertices on a token-free cycle: Tarjan's algorithm over the
   stuck vertices (every unmarked successor of a stuck vertex is
   stuck), keeping the components of two or more vertices and the
   unmarked self-loops *)
let on_unmarked_cycle arc_table (starts, ids) stuck =
  let n = Array.length stuck in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and stack = Array.make n 0 and sp = ref 0 in
  let call = Array.make n 0 and next = Array.make n 0 and depth = ref 0 in
  let cyclic = Array.make n false and counter = ref 0 in
  let enter v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    on_stack.(v) <- true;
    stack.(!sp) <- v;
    incr sp;
    call.(!depth) <- v;
    next.(!depth) <- starts.(v);
    incr depth
  in
  for root = 0 to n - 1 do
    if stuck.(root) && index.(root) < 0 then begin
      enter root;
      while !depth > 0 do
        let v = call.(!depth - 1) and j = next.(!depth - 1) in
        if j < starts.(v + 1) then begin
          next.(!depth - 1) <- j + 1;
          let a = arc_table.(ids.(j)) in
          if not a.marked then begin
            let w = a.arc_dst in
            if w = v then cyclic.(v) <- true;
            if index.(w) < 0 then enter w
            else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
          end
        end
        else begin
          decr depth;
          if !depth > 0 then begin
            let p = call.(!depth - 1) in
            low.(p) <- min low.(p) low.(v)
          end;
          if low.(v) = index.(v) then begin
            let size = ref 0 and bottom = !sp in
            let rec pop () =
              decr sp;
              incr size;
              on_stack.(stack.(!sp)) <- false;
              if stack.(!sp) <> v then pop ()
            in
            pop ();
            if !size > 1 then
              for k = !sp to bottom - 1 do
                cyclic.(stack.(k)) <- true
              done
          end
        end
      done
    end
  done;
  cyclic

(* one concrete token-free cycle: from the smallest cyclic vertex,
   follow each vertex's first unmarked out-arc (in arc-id order) into
   a cyclic vertex until a vertex repeats.  Such an arc always exists:
   it leads into the vertex's own component, or is its self-loop. *)
let cycle_witness arc_table (starts, ids) cyclic =
  let rec first v = if cyclic.(v) then v else first (v + 1) in
  let rec next j =
    let a = arc_table.(ids.(j)) in
    if (not a.marked) && cyclic.(a.arc_dst) then a.arc_dst else next (j + 1)
  in
  let position = Array.make (Array.length cyclic) (-1) in
  let rec chase u k path =
    if position.(u) >= 0 then List.filteri (fun i _ -> i >= position.(u)) (List.rev path)
    else begin
      position.(u) <- k;
      chase (next starts.(u)) (k + 1) (u :: path)
    end
  in
  chase (first 0) 0 []

(* every well-formedness rule, in a fixed order: the per-arc rules in
   arc-id order, then strong connectivity of the repetitive part, then
   liveness; all of it on the CSR rows [out_rows]/[in_rows] *)
let validate events classes arc_table ~out_rows ~in_rows =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let n = Array.length events in
  Array.iteri
    (fun i a ->
      tick i;
      let u = events.(a.arc_src) and v = events.(a.arc_dst) in
      if a.delay < 0. then err (Negative_delay (u, v, a.delay));
      if a.marked && a.disengageable then err (Marked_disengageable (u, v));
      if a.disengageable && classes.(a.arc_src) = Repetitive then
        err (Disengageable_from_repetitive (u, v));
      if classes.(a.arc_src) = Repetitive && classes.(a.arc_dst) <> Repetitive then
        err (Repetitive_to_non_repetitive (u, v));
      if classes.(a.arc_dst) = Initial then err (Initial_event_with_in_arc v))
    arc_table;
  let rep_count = Array.fold_left (fun k c -> if c = Repetitive then k + 1 else k) 0 classes in
  if rep_count > 0 then begin
    let rec first v = if classes.(v) = Repetitive then v else first (v + 1) in
    let root = first 0 in
    if
      not
        (reaches_all classes arc_table out_rows (fun a -> a.arc_dst) root rep_count
        && reaches_all classes arc_table in_rows (fun a -> a.arc_src) root rep_count)
    then err Repetitive_part_not_strongly_connected
  end;
  (match unmarked_residue n arc_table out_rows with
  | None -> ()
  | Some stuck ->
    let cyclic = on_unmarked_cycle arc_table out_rows stuck in
    let witness = cycle_witness arc_table out_rows cyclic in
    err (Unmarked_cycle (List.map (fun v -> events.(v)) witness)));
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Freezing                                                            *)

(* the one freeze behind [build] and [with_arcs]: the CSR rows by
   source and by target, checked by every rule of [validate] *)
let freeze events classes arc_table =
  let n = Array.length events in
  let out_rows = csr n arc_table (fun a -> a.arc_src) in
  let in_rows = csr n arc_table (fun a -> a.arc_dst) in
  match validate events classes arc_table ~out_rows ~in_rows with
  | _ :: _ as errs -> Error errs
  | [] -> Ok (out_rows, in_rows)

let build b =
  let n = b.b_count in
  let events = Array.sub b.b_events 0 n and classes = Array.sub b.b_classes 0 n in
  let arc_table = Array.sub b.b_arcs 0 b.b_arc_count in
  match freeze events classes arc_table with
  | Error errs -> Error errs
  | Ok (out_rows, in_rows) ->
    let repetitive = ref [] and initial = ref [] in
    for v = n - 1 downto 0 do
      match classes.(v) with
      | Repetitive -> repetitive := v :: !repetitive
      | Initial -> initial := v :: !initial
      | Non_repetitive -> ()
    done;
    let signal_names =
      let seen = Hashtbl.create 16 in
      let names = ref [] in
      Array.iter
        (fun (ev : Event.t) ->
          if not (Hashtbl.mem seen ev.Event.signal) then begin
            Hashtbl.add seen ev.Event.signal ();
            names := ev.Event.signal :: !names
          end)
        events;
      List.rev !names
    in
    Ok
      {
        events;
        classes;
        arc_table;
        out_rows;
        in_rows;
        index = Event_table.copy b.b_index;
        repetitive = !repetitive;
        initial = !initial;
        signal_names;
      }

let build_exn b =
  match build b with
  | Ok g -> g
  | Error errs ->
    invalid_arg
      (Fmt.str "Signal_graph.build_exn:@ %a" Fmt.(list ~sep:(any ";@ ") pp_error) errs)

let of_arcs ~events ~arcs =
  let b = builder () in
  List.iter (fun (ev, cls) -> add_event b ev cls) events;
  List.iter (fun (u, v, delay, marked) -> add_arc b ~marked ~delay u v) arcs;
  build_exn b

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let event_count g = Array.length g.events
let arc_count g = Array.length g.arc_table

let event g i =
  if i < 0 || i >= Array.length g.events then
    invalid_arg (Printf.sprintf "Signal_graph.event: id %d out of range" i);
  g.events.(i)

let id g ev = Event_table.find g.index ev
let id_opt g ev = Event_table.find_opt g.index ev
let class_of g i = g.classes.(i)
let is_repetitive g i = g.classes.(i) = Repetitive
let arc g i = g.arc_table.(i)
let arcs g = g.arc_table
(* only the delay changes, so only the delay needs re-validating: the
   structural invariants checked by [build] depend on topology and
   marking alone and are inherited from [g] *)
let with_delays g delays =
  if Array.length delays <> Array.length g.arc_table then
    invalid_arg
      (Printf.sprintf "Signal_graph.with_delays: %d delays for %d arcs"
         (Array.length delays) (Array.length g.arc_table));
  let arc_table =
    Array.mapi
      (fun i a ->
        let d = delays.(i) in
        if not (Float.is_finite d) || d < 0. then
          invalid_arg
            (Printf.sprintf "Signal_graph.with_delays: arc %d: invalid delay %g" i d);
        if d = a.delay then a else { a with delay = d })
      g.arc_table
  in
  { g with arc_table }

(* arc constructor for structural edits: applies the same
   auto-disengageable rule as the builder's [add_arc], so an arc built
   here is indistinguishable from one declared up front *)
let make_arc g ?(marked = false) ?(disengageable = false) ~delay src dst =
  let n = Array.length g.events in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg
      (Printf.sprintf "Signal_graph.make_arc: event id out of range (%d -> %d, %d events)"
         src dst n);
  let disengageable =
    disengageable || (g.classes.(src) <> Repetitive && g.classes.(dst) = Repetitive)
  in
  { arc_src = src; arc_dst = dst; delay; marked; disengageable }

(* a structural edit replaces the whole arc table over the unchanged
   event set; unlike [with_delays] this re-runs the whole [freeze]
   (marking rules, connectivity, liveness) because topology and
   marking may have changed *)
let with_arcs g arc_table =
  let n = Array.length g.events in
  Array.iter
    (fun a ->
      if a.arc_src < 0 || a.arc_src >= n || a.arc_dst < 0 || a.arc_dst >= n then
        invalid_arg "Signal_graph.with_arcs: arc endpoint out of range")
    arc_table;
  match freeze g.events g.classes arc_table with
  | Error errs -> Error errs
  | Ok (out_rows, in_rows) -> Ok { g with arc_table; out_rows; in_rows }

(* a row of arc ids as a list, built on each call *)
let row_list (starts, ids) v =
  let l = ref [] in
  for j = starts.(v + 1) - 1 downto starts.(v) do
    l := ids.(j) :: !l
  done;
  !l

let out_arc_ids g v = row_list g.out_rows v
let out_arc_rows g = g.out_rows
let in_arc_ids g v = row_list g.in_rows v
let events_of g = g.events
let repetitive_events g = g.repetitive
let initial_events g = g.initial
let signals g = g.signal_names
let repetitive_count g = List.length g.repetitive

let to_digraph g =
  let n = event_count g in
  let dg = Tsg_graph.Digraph.create ~capacity:(max n 1) () in
  Tsg_graph.Digraph.add_vertices dg n;
  Array.iteri
    (fun i a -> Tsg_graph.Digraph.add_arc dg ~src:a.arc_src ~dst:a.arc_dst i)
    g.arc_table;
  dg

let repetitive_digraph g =
  let n = event_count g in
  let dg = Tsg_graph.Digraph.create ~capacity:(max n 1) () in
  Tsg_graph.Digraph.add_vertices dg n;
  Array.iteri
    (fun i a ->
      if g.classes.(a.arc_src) = Repetitive && g.classes.(a.arc_dst) = Repetitive then
        Tsg_graph.Digraph.add_arc dg ~src:a.arc_src ~dst:a.arc_dst i)
    g.arc_table;
  dg

(* ------------------------------------------------------------------ *)
(* Canonical form and digest                                           *)

(* Delays are printed as hexadecimal float literals: exact (no decimal
   rounding can merge distinct delays) and canonical (one spelling per
   value).  [-0.] compares equal to [0.] and is normalised to it so the
   two spellings cannot split a digest. *)
let canonical_delay d = if d = 0. then "0" else Printf.sprintf "%h" d

(* The canonical form is the event lines ["name class"] and the arc
   lines ["src dst delay[ *][ !]"], each block sorted as strings.  No
   line is built to be sorted: the string order of the lines is the
   order of their fields, ranked once.
   - Names: when one name is a proper prefix of another, the longer one
     goes on with ['/'] or a digit (an occurrence index), both above
     the [' '] that ends the shorter one's field; so lines order as
     their names do, source first, then target.
   - Delay literals ([canonical_delay]) use only characters above
     [' '] too, so they order as strings, ranked over the distinct
     values.
   - The flags order as no flag < [" !"] < [" *"] < [" * !"].
   The arc order is then four stable counting sorts, least significant
   field first. *)
let canonical_form g =
  let n = Array.length g.events and arcs = g.arc_table in
  let names = Array.map Event.to_string g.events in
  let by_name = Array.init n Fun.id in
  Array.stable_sort (fun u v -> String.compare names.(u) names.(v)) by_name;
  let rank = Array.make n 0 in
  Array.iteri (fun r v -> rank.(v) <- r) by_name;
  (* number the distinct delays in order of appearance ([-0.] is [0.]),
     then rank them by literal *)
  let numbers = Hashtbl.create 64 and distinct = ref [] and count = ref 0 in
  let delay_index =
    Array.map
      (fun a ->
        let d = if a.delay = 0. then 0. else a.delay in
        match Hashtbl.find_opt numbers d with
        | Some k -> k
        | None ->
          Hashtbl.add numbers d !count;
          distinct := d :: !distinct;
          incr count;
          !count - 1)
      arcs
  in
  let literals = Array.of_list (List.rev_map canonical_delay !distinct) in
  let by_literal = Array.init !count Fun.id in
  Array.stable_sort (fun i j -> String.compare literals.(i) literals.(j)) by_literal;
  let literal_rank = Array.make !count 0 in
  Array.iteri (fun r i -> literal_rank.(i) <- r) by_literal;
  let flags a = (if a.marked then 2 else 0) + if a.disengageable then 1 else 0 in
  let by key buckets order =
    snd (counting_sort (Array.length order) (Array.get order) key buckets)
  in
  let order =
    Array.init (Array.length arcs) Fun.id
    |> by (fun i -> flags arcs.(i)) 4
    |> by (fun i -> literal_rank.(delay_index.(i))) !count
    |> by (fun i -> rank.(arcs.(i).arc_dst)) n
    |> by (fun i -> rank.(arcs.(i).arc_src)) n
  in
  let buf = Buffer.create (16 + (12 * n) + (32 * Array.length arcs)) in
  Buffer.add_string buf "events\n";
  Array.iter
    (fun v ->
      Buffer.add_string buf names.(v);
      Buffer.add_string buf
        (match g.classes.(v) with
        | Initial -> " i\n"
        | Non_repetitive -> " n\n"
        | Repetitive -> " r\n"))
    by_name;
  Buffer.add_string buf "arcs\n";
  Array.iter
    (fun i ->
      let a = arcs.(i) in
      Buffer.add_string buf names.(a.arc_src);
      Buffer.add_char buf ' ';
      Buffer.add_string buf names.(a.arc_dst);
      Buffer.add_char buf ' ';
      Buffer.add_string buf literals.(delay_index.(i));
      if a.marked then Buffer.add_string buf " *";
      if a.disengageable then Buffer.add_string buf " !";
      Buffer.add_char buf '\n')
    order;
  Buffer.contents buf

let digest g = Digest.to_hex (Digest.string (canonical_form g))

let pp ppf g =
  let class_name = function
    | Initial -> "initial"
    | Non_repetitive -> "non-repetitive"
    | Repetitive -> "repetitive"
  in
  Fmt.pf ppf "@[<v>signal graph: %d events, %d arcs" (event_count g) (arc_count g);
  Array.iteri
    (fun i ev -> Fmt.pf ppf "@,  %d: %a (%s)" i Event.pp ev (class_name g.classes.(i)))
    g.events;
  Array.iter
    (fun a ->
      Fmt.pf ppf "@,  %a -%g-> %a%s%s" Event.pp g.events.(a.arc_src) a.delay Event.pp
        g.events.(a.arc_dst)
        (if a.marked then " [*]" else "")
        (if a.disengageable then " [once]" else ""))
    g.arc_table;
  Fmt.pf ppf "@]"
