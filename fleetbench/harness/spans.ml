type span = {
  id : int;
  parent : int option;
  trace : int;
  name : string;
  start_s : float;
  stop_s : float;
}

type t = { mutex : Mutex.t; mutable next_id : int; mutable spans : span list }

let create () = { mutex = Mutex.create (); next_id = 0; spans = [] }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let fresh_id t =
  locked t @@ fun () ->
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t span = locked t (fun () -> t.spans <- span :: t.spans)

let with_span t ?parent name f =
  let id = fresh_id t in
  let trace = match parent with Some p -> p.trace | None -> id in
  let handle =
    { id; parent = Option.map (fun p -> p.id) parent; trace; name; start_s = 0.; stop_s = 0. }
  in
  let start_s = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      record t { handle with start_s; stop_s = Unix.gettimeofday () })
    (fun () -> f { handle with start_s })

let add t ?parent name ~start_s ~stop_s =
  let id = fresh_id t in
  let trace = match parent with Some p -> p.trace | None -> id in
  record t { id; parent = Option.map (fun p -> p.id) parent; trace; name; start_s; stop_s }

let spans t = locked t (fun () -> List.rev t.spans)

(* the measure of the union of [intervals] clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times t =
  let all = spans t in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter (fun p -> Hashtbl.add children p (s.start_s, s.stop_s)) s.parent)
    all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let self = s.stop_s -. s.start_s -. covered ~lo:s.start_s ~hi:s.stop_s kids in
      let n, total = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.) in
      Hashtbl.replace acc s.name (n + 1, total +. (self *. 1000.)))
    all;
  Hashtbl.fold (fun name (n, ms) l -> (name, n, ms) :: l) acc []
  |> List.sort compare

(* Chrome trace-event JSON: one complete ("X") event per span, the
   trace id as the thread lane so one request's spans stack together *)
let to_chrome_json t =
  let all = spans t in
  let t0 = List.fold_left (fun m s -> Float.min m s.start_s) Float.infinity all in
  let event s =
    Printf.sprintf
      {|{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%s}}|}
      (String.escaped s.name) s.trace
      ((s.start_s -. t0) *. 1e6)
      ((s.stop_s -. s.start_s) *. 1e6)
      s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
  in
  Printf.sprintf {|{"traceEvents":[%s]}|} (String.concat "," (List.map event all))
