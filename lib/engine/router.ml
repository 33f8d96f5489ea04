(* Rendezvous-hashed shard routing over Server.call.  See router.mli
   for the contract; the load-bearing property is determinism: every
   process that knows the endpoint list computes the same home shard
   for the same key, with no coordination and no shared state. *)

type shard = {
  sh_endpoint : Server.endpoint;
  sh_name : string;  (* endpoint_to_string, also the hash salt *)
  sh_breaker : Breaker.t;
  mutable sh_inflight : int;
  mutable sh_served : int;
  mutable sh_failed : int;
}

type t = {
  shards : shard array;
  prefix : string;
  retries : int;
  backoff_ms : float;
  timeout_s : float option;
  max_inflight : int;
  mutex : Mutex.t;
  mutable rt_requests : int;
  mutable rt_rerouted : int;
  mutable rt_failovers : int;
  mutable rt_breaker_trips : int;
}

(* FNV-1a, 64-bit.  Not cryptographic — the keys are already MD5
   digests — just a fast, well-mixed, stable score for rendezvous
   ranking. *)
let fnv1a64 (s : string) : int64 =
  let open Int64 in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := logxor !h (of_int (Char.code c));
      h := mul !h 0x100000001b3L)
    s;
  !h

let score key shard_name =
  fnv1a64 (key ^ "\x00" ^ shard_name)

let create ?(metrics_prefix = "router") ?(retries = 0) ?(backoff_ms = 50.) ?timeout_s
    ?(max_inflight = 64) ?breaker_window ?breaker_failures ?breaker_cooldown_ms
    endpoints =
  if endpoints = [] then invalid_arg "Router.create: no endpoints";
  (match timeout_s with
  | Some s when s <= 0. || not (Float.is_finite s) ->
    invalid_arg "Router.create: timeout_s must be finite and positive"
  | _ -> ());
  {
    shards =
      Array.of_list
        (List.map
           (fun ep ->
             {
               sh_endpoint = ep;
               sh_name = Server.endpoint_to_string ep;
               sh_breaker =
                 Breaker.create ?window:breaker_window ?failures:breaker_failures
                   ?cooldown_ms:breaker_cooldown_ms ();
               sh_inflight = 0;
               sh_served = 0;
               sh_failed = 0;
             })
           endpoints);
    prefix = metrics_prefix;
    retries;
    backoff_ms;
    timeout_s;
    max_inflight;
    mutex = Mutex.create ();
    rt_requests = 0;
    rt_rerouted = 0;
    rt_failovers = 0;
    rt_breaker_trips = 0;
  }

let close _ = ()

let endpoints t = Array.to_list (Array.map (fun s -> s.sh_endpoint) t.shards)

(* rendezvous: rank shards by descending score; unsigned comparison so
   the top hash bit doesn't flip the order *)
let rank t key =
  Array.to_list t.shards
  |> List.mapi (fun i s -> (Int64.add (score key s.sh_name) Int64.min_int, i))
  |> List.sort (fun (a, _) (b, _) -> Int64.compare b a)
  |> List.map snd

let home t key = List.hd (rank t key)

let locked t f =
  Mutex.lock t.mutex;
  f ();
  Mutex.unlock t.mutex

(* every conversation's outcome reaches the shard's breaker; an
   application-level error line is a successful conversation — the
   breaker only cares whether the shard answers, not whether it liked
   the request *)
let record t i ~ok =
  let s = t.shards.(i) in
  let tripped = Breaker.record s.sh_breaker ~now:(Unix.gettimeofday ()) ~ok in
  locked t (fun () ->
      if ok then s.sh_served <- s.sh_served + 1
      else s.sh_failed <- s.sh_failed + 1;
      if tripped then t.rt_breaker_trips <- t.rt_breaker_trips + 1);
  if tripped then Metrics.incr (t.prefix ^ "/breaker_open")

(* admission: returns false when the shard is at max_inflight *)
let try_acquire t i =
  let s = t.shards.(i) in
  Mutex.lock t.mutex;
  let ok = s.sh_inflight < t.max_inflight in
  if ok then s.sh_inflight <- s.sh_inflight + 1;
  Mutex.unlock t.mutex;
  ok

let release t i =
  let s = t.shards.(i) in
  locked t (fun () -> s.sh_inflight <- s.sh_inflight - 1)

type call_outcome =
  | Answered of string
  | Saturated
  | Call_failed of string

(* one request to shard [i], no failover; the outcome feeds the
   shard's breaker *)
let call_one t i request =
  if not (try_acquire t i) then begin
    (* nothing reached the wire: give back a half-open trial slot
       rather than charging the shard for our own inflight cap *)
    Breaker.abort t.shards.(i).sh_breaker;
    Saturated
  end
  else
    let result =
      match
        Fun.protect ~finally:(fun () -> release t i) @@ fun () ->
        Server.call ~retries:t.retries ~backoff_ms:t.backoff_ms ?timeout_s:t.timeout_s
          ~endpoint:t.shards.(i).sh_endpoint [ request ]
      with
      | [ response ] -> Ok response
      | _ -> Error "protocol error: response count mismatch"
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | exception Failure msg -> Error msg
    in
    record t i ~ok:(Result.is_ok result);
    match result with Ok response -> Answered response | Error e -> Call_failed e

let shard_count t = Array.length t.shards

let all_open_error = "no shard available (all circuit breakers open)"

let route ?(retry = fun () -> true) t ~key request =
  let t0 = Unix.gettimeofday () in
  Metrics.incr (t.prefix ^ "/requests");
  locked t (fun () -> t.rt_requests <- t.rt_requests + 1);
  let order = rank t key in
  let tried = Array.make (Array.length t.shards) false in
  let fail e =
    Metrics.incr (t.prefix ^ "/failed");
    Error e
  in
  let deadline = Deadline.current () in
  (* the next untried shard whose breaker allows a call; allow is only
     invoked up to the candidate returned, so a half-open trial slot
     it takes is always used or given back *)
  let next () =
    let now = Unix.gettimeofday () in
    List.find_opt (fun i -> (not tried.(i)) && Breaker.allow t.shards.(i).sh_breaker ~now) order
  in
  (* [last_error] is [None] only before the first attempt *)
  let rec attempt last_error =
    if Deadline.expired deadline then fail (Deadline.error_message deadline)
    else
      match (next (), last_error) with
      | None, _ -> fail (Option.value last_error ~default:all_open_error)
      | Some i, Some e when not (retry ()) ->
        (* the caller refused the retry: no call follows the pick *)
        Breaker.abort t.shards.(i).sh_breaker;
        fail e
      | Some i, _ -> (
        tried.(i) <- true;
        match call_one t i request with
        | Answered response ->
          if i <> List.hd order then begin
            locked t (fun () -> t.rt_rerouted <- t.rt_rerouted + 1);
            Metrics.incr (t.prefix ^ "/rerouted")
          end;
          Metrics.observe_ms (t.prefix ^ "/request_ms")
            ((Unix.gettimeofday () -. t0) *. 1000.);
          Ok response
        | Saturated ->
          (* shed to the next shard, never queue *)
          attempt
            (Some
               (Option.value last_error
                  ~default:"no shard available (saturated or breaker open)"))
        | Call_failed e ->
          locked t (fun () -> t.rt_failovers <- t.rt_failovers + 1);
          Metrics.incr (t.prefix ^ "/failovers");
          attempt (Some e))
  in
  attempt None

let broadcast t request =
  Array.to_list
    (Array.mapi
       (fun i s ->
         ( s.sh_endpoint,
           match call_one t i request with
           | Answered response -> Ok response
           | Saturated -> Error "shard saturated"
           | Call_failed e -> Error e ))
       t.shards)

type shard_stats = {
  endpoint : string;
  healthy : bool;
  breaker : Breaker.state;
  inflight : int;
  served : int;
  failed : int;
}

type router_stats = {
  requests : int;
  rerouted : int;
  failovers : int;
  breaker_trips : int;
  shards : shard_stats list;
}

let stats (t : t) =
  let now = Unix.gettimeofday () in
  let states = Array.map (fun s -> Breaker.state s.sh_breaker ~now) t.shards in
  Mutex.lock t.mutex;
  let shards =
    Array.to_list
      (Array.mapi
         (fun i s ->
           {
             endpoint = s.sh_name;
             healthy = states.(i) = Breaker.Closed;
             breaker = states.(i);
             inflight = s.sh_inflight;
             served = s.sh_served;
             failed = s.sh_failed;
           })
         t.shards)
  in
  let r =
    {
      requests = t.rt_requests;
      rerouted = t.rt_rerouted;
      failovers = t.rt_failovers;
      breaker_trips = t.rt_breaker_trips;
      shards;
    }
  in
  Mutex.unlock t.mutex;
  r
