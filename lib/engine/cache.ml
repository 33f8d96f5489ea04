(* An LRU cache: a hash table over an intrusive doubly-linked list.

   The list is ordered by recency (head = most recently used); every
   hit splices its node to the head, every insertion beyond capacity
   drops the tail.  All operations take the cache mutex; the only
   user-supplied code that runs under it is nothing — [find_or_add]
   computes outside the lock, and a key being computed is parked in
   [inflight] so concurrent callers wait for it instead of repeating
   it. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards the head (more recent) *)
  mutable next : 'v node option;  (* towards the tail (less recent) *)
}

(* one [find_or_add] computation in progress; its waiters sleep on the
   cache's [landed] condition until the computing caller settles it *)
type 'v flight_state = Computing | Landed of 'v | Failed
type 'v flight = { mutable state : 'v flight_state }

type 'v t = {
  cap : int;
  prefix : string;
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  inflight : (string, 'v flight) Hashtbl.t;
  mutex : Mutex.t;
  landed : Condition.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

let create ?(metrics_prefix = "cache") ~capacity () =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    cap = capacity;
    prefix = metrics_prefix;
    tbl = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    inflight = Hashtbl.create 8;
    mutex = Mutex.create ();
    landed = Condition.create ();
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception exn ->
    Mutex.unlock t.mutex;
    raise exn

let length t = locked t (fun () -> Hashtbl.length t.tbl)

(* list surgery; caller holds the mutex *)

let detach t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    detach t n;
    push_front t n

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
    detach t n;
    Hashtbl.remove t.tbl n.key;
    t.evictions <- t.evictions + 1;
    Metrics.incr (t.prefix ^ "/evictions")

(* hit/miss accounting; caller holds the mutex *)

let count_hit (t : _ t) key =
  t.hits <- t.hits + 1;
  Metrics.incr (t.prefix ^ "/hits");
  Tsg_obs.Trace.instant (t.prefix ^ "/hit") ~args:[ ("key", key) ]

let count_miss (t : _ t) key =
  t.misses <- t.misses + 1;
  Metrics.incr (t.prefix ^ "/misses");
  Tsg_obs.Trace.instant (t.prefix ^ "/miss") ~args:[ ("key", key) ]

let find_locked t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    touch t n;
    count_hit t key;
    Some n.value
  | None -> None

let find t key =
  Tsg_obs.Failpoint.hit "cache/lookup";
  locked t @@ fun () ->
  match find_locked t key with
  | Some _ as hit -> hit
  | None ->
    count_miss t key;
    None

(* caller holds the mutex *)
let insert t key v =
  if t.cap > 0 then
    match Hashtbl.find_opt t.tbl key with
    | Some n ->
      n.value <- v;
      touch t n
    | None ->
      if Hashtbl.length t.tbl >= t.cap then evict_tail t;
      let n = { key; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n

let add t key v = locked t (fun () -> insert t key v)

let find_or_add t key compute =
  Tsg_obs.Failpoint.hit "cache/lookup";
  (* under the mutex: a stored value, a value another caller computed
     while we waited (both hits), or the job of computing it (a miss) *)
  let rec claim () =
    match find_locked t key with
    | Some v -> `Served v
    | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some f -> wait f
      | None ->
        count_miss t key;
        let f = { state = Computing } in
        Hashtbl.replace t.inflight key f;
        `Compute f)
  and wait f =
    match f.state with
    | Computing ->
      (* the wait is bounded by the waiter's own ambient deadline, not
         the computing caller's; [Condition] has no timed wait, so a
         waiter with a deadline polls every millisecond instead *)
      let deadline = Deadline.current () in
      if deadline == Deadline.none then Condition.wait t.landed t.mutex
      else begin
        Deadline.check deadline;
        Mutex.unlock t.mutex;
        Unix.sleepf 0.001;
        Mutex.lock t.mutex;
        Deadline.check deadline
      end;
      wait f
    | Landed v ->
      count_hit t key;
      `Served v
    (* its computation raised: start over, perhaps computing it *)
    | Failed -> claim ()
  in
  match locked t claim with
  | `Served v -> v
  | `Compute f ->
    let settle state =
      locked t @@ fun () ->
      Hashtbl.remove t.inflight key;
      (match state with Landed v -> insert t key v | Computing | Failed -> ());
      f.state <- state;
      Condition.broadcast t.landed
    in
    (match compute () with
    | v ->
      settle (Landed v);
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      settle Failed;
      Printexc.raise_with_backtrace exn bt)

let remove t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some n ->
    detach t n;
    Hashtbl.remove t.tbl key

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    length = Hashtbl.length t.tbl;
    capacity = t.cap;
  }
