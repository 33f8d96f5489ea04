(* The fleet-fronting policy layer.  See proxy.mli for the contract.

   The failover itself is Router.route's: the proxy adds admission in
   front of it, the retry budget as route's [retry] predicate (so every
   decision to try again passes the budget), and the degraded fallback
   behind it.  Shard health (the breakers) lives in the router. *)

(* ------------------------------------------------------------------ *)
(* Retry budget *)

module Retry_budget = struct
  type t = {
    ratio : float;
    burst : float;
    mutable tokens : float;
    mx : Mutex.t;
  }

  let create ?(ratio = 0.1) ?(burst = 16.) () =
    if ratio < 0. || not (Float.is_finite ratio) then
      invalid_arg "Proxy.Retry_budget.create: ratio must be finite and >= 0";
    if burst < 1. || not (Float.is_finite burst) then
      invalid_arg "Proxy.Retry_budget.create: burst must be finite and >= 1";
    (* start full: a cold proxy can absorb a small failure burst *)
    { ratio; burst; tokens = burst; mx = Mutex.create () }

  let deposit t =
    Mutex.lock t.mx;
    t.tokens <- Float.min t.burst (t.tokens +. t.ratio);
    Mutex.unlock t.mx

  let try_withdraw t =
    Mutex.lock t.mx;
    let ok = t.tokens >= 1. in
    if ok then t.tokens <- t.tokens -. 1.;
    Mutex.unlock t.mx;
    ok

  let balance t =
    Mutex.lock t.mx;
    let b = t.tokens in
    Mutex.unlock t.mx;
    b
end

(* ------------------------------------------------------------------ *)
(* Admission queue *)

(* OCaml's stdlib Condition has no timed wait, so waiters poll their
   own state cell under the queue mutex (the repo idiom, 2 ms slices).
   Granted and dropped waiters are popped lazily by [promote]; a
   waiter that expires marks itself dropped and leaves its husk for
   promote to discard. *)
type wstate = Waiting | Granted | Dropped

type waiter = { mutable ws : wstate }

type admission = {
  aq : waiter Queue.t;
  mutable active : int;
  max_active : int;
  depth : int;
  amx : Mutex.t;
}

(* under [amx]: hand free slots to the oldest live waiters *)
let promote ad =
  let continue = ref true in
  while !continue do
    if ad.active < ad.max_active && not (Queue.is_empty ad.aq) then begin
      let w = Queue.pop ad.aq in
      match w.ws with
      | Waiting ->
        w.ws <- Granted;
        ad.active <- ad.active + 1
      | Granted | Dropped -> ()  (* husk: discard and keep scanning *)
    end
    else continue := false
  done

let live_waiters ad =
  Queue.fold (fun n w -> if w.ws = Waiting then n + 1 else n) 0 ad.aq

(* ------------------------------------------------------------------ *)
(* The proxy *)

type t = {
  router : Router.t;
  stale : Disk_cache.t option;
  budget : Retry_budget.t;
  admission : admission;
  prefix : string;
  mx : Mutex.t;
  mutable st_requests : int;
  mutable st_retries : int;
  mutable st_shed : int;
  mutable st_degraded : int;
  mutable st_degraded_miss : int;
  mutable st_queue_dropped : int;
  mutable st_queue_expired : int;
}

let create ?(metrics_prefix = "proxy") ?retry_ratio ?retry_burst
    ?(queue_depth = 64) ?(max_concurrent = 32) ?stale router =
  if queue_depth <= 0 then invalid_arg "Proxy.create: queue_depth <= 0";
  if max_concurrent <= 0 then invalid_arg "Proxy.create: max_concurrent <= 0";
  {
    router;
    stale;
    budget = Retry_budget.create ?ratio:retry_ratio ?burst:retry_burst ();
    admission =
      {
        aq = Queue.create ();
        active = 0;
        max_active = max_concurrent;
        depth = queue_depth;
        amx = Mutex.create ();
      };
    prefix = metrics_prefix;
    mx = Mutex.create ();
    st_requests = 0;
    st_retries = 0;
    st_shed = 0;
    st_degraded = 0;
    st_degraded_miss = 0;
    st_queue_dropped = 0;
    st_queue_expired = 0;
  }

let router t = t.router

let bump t f =
  Mutex.lock t.mx;
  f t;
  Mutex.unlock t.mx

(* ------------------------------------------------------------------ *)
(* Admission *)

(* the waiter polls on the thread whose [deadline] this is *)
let acquire t ~deadline =
  let ad = t.admission in
  Mutex.lock ad.amx;
  if ad.active < ad.max_active && Queue.is_empty ad.aq then begin
    ad.active <- ad.active + 1;
    Mutex.unlock ad.amx;
    `Admitted
  end
  else begin
    if live_waiters ad >= ad.depth then begin
      (* past high-water: the eldest waiter is answered overloaded on
         the spot and the newcomer takes its place — the oldest
         request is the one most likely already abandoned *)
      let dropped = ref false in
      Queue.iter
        (fun w ->
          if (not !dropped) && w.ws = Waiting then begin
            w.ws <- Dropped;
            dropped := true
          end)
        ad.aq;
      if !dropped then begin
        bump t (fun t -> t.st_queue_dropped <- t.st_queue_dropped + 1);
        Metrics.incr (t.prefix ^ "/queue_dropped")
      end
    end;
    let w = { ws = Waiting } in
    Queue.push w ad.aq;
    Mutex.unlock ad.amx;
    let result = ref None in
    while !result = None do
      Mutex.lock ad.amx;
      promote ad;
      (match w.ws with
      | Granted -> result := Some `Admitted
      | Dropped -> result := Some `Overloaded
      | Waiting ->
        if Deadline.expired deadline then begin
          w.ws <- Dropped;  (* husk; promote discards it *)
          result := Some `Expired
        end);
      Mutex.unlock ad.amx;
      if !result = None then Thread.delay 0.002
    done;
    Option.get !result
  end

let release t =
  let ad = t.admission in
  Mutex.lock ad.amx;
  ad.active <- ad.active - 1;
  promote ad;
  Mutex.unlock ad.amx

(* ------------------------------------------------------------------ *)
(* Degraded serving *)

let marker = {|"degraded":true|}

let mark_degraded payload =
  let n = String.length payload in
  if n >= 2 && payload.[0] = '{' then
    if payload.[1] = '}' then "{" ^ marker ^ String.sub payload 1 (n - 1)
    else "{" ^ marker ^ "," ^ String.sub payload 1 (n - 1)
  else payload

let strip_degraded line =
  let with_comma = "{" ^ marker ^ "," in
  let bare = "{" ^ marker ^ "}" in
  let n = String.length line in
  if n >= String.length with_comma
     && String.sub line 0 (String.length with_comma) = with_comma
  then
    Some
      ("{"
      ^ String.sub line
          (String.length with_comma)
          (n - String.length with_comma))
  else if line = bare then Some "{}"
  else None

type outcome =
  | Fresh of string
  | Degraded of string * float
  | Shed of string * string
  | Failed of string

(* every live candidate is open or has failed: the last resort is a
   stale answer from the shared disk cache *)
let finish_unavailable t ~cache_key msg =
  match (t.stale, cache_key) with
  | Some dc, Some ck -> (
    match Disk_cache.read_stale dc ck with
    | Some (payload, age) ->
      bump t (fun t -> t.st_degraded <- t.st_degraded + 1);
      Metrics.incr (t.prefix ^ "/degraded");
      Degraded (payload, age)
    | None ->
      bump t (fun t -> t.st_degraded_miss <- t.st_degraded_miss + 1);
      Metrics.incr (t.prefix ^ "/degraded_miss");
      Failed msg)
  | _ -> Failed msg

(* ------------------------------------------------------------------ *)
(* The forwarding decision *)

let forward t ?key ?cache_key request =
  let deadline = Deadline.current () in
  bump t (fun t -> t.st_requests <- t.st_requests + 1);
  Metrics.incr (t.prefix ^ "/requests");
  match acquire t ~deadline with
  | `Overloaded ->
    bump t (fun t -> t.st_shed <- t.st_shed + 1);
    Metrics.incr (t.prefix ^ "/overloaded");
    Shed ("overloaded", "proxy admission queue full")
  | `Expired ->
    bump t (fun t ->
        t.st_queue_expired <- t.st_queue_expired + 1;
        t.st_shed <- t.st_shed + 1);
    Metrics.incr (t.prefix ^ "/queue_expired");
    Shed
      ( "deadline_exceeded",
        "deadline_exceeded: request expired in the proxy admission queue" )
  | `Admitted ->
    Fun.protect ~finally:(fun () -> release t) @@ fun () ->
    (* every admitted request funds the retry budget *)
    Retry_budget.deposit t.budget;
    let refused = ref false in
    let retry () =
      let ok = Retry_budget.try_withdraw t.budget in
      if ok then begin
        bump t (fun t -> t.st_retries <- t.st_retries + 1);
        Metrics.incr (t.prefix ^ "/retries")
      end
      else refused := true;
      ok
    in
    match Router.route ~retry t.router ~key:(Option.value key ~default:request) request with
    | Ok resp -> Fresh resp
    | Error _ when Deadline.expired deadline ->
      bump t (fun t -> t.st_shed <- t.st_shed + 1);
      Metrics.incr (t.prefix ^ "/deadline_shed");
      Shed ("deadline_exceeded", "deadline_exceeded: proxy ran out of budget")
    | Error _ when !refused ->
      (* budget exhausted: shed instead of retrying — this is the
         retry-storm killswitch *)
      bump t (fun t -> t.st_shed <- t.st_shed + 1);
      Metrics.incr (t.prefix ^ "/retry_budget_shed");
      Shed ("overloaded", "retry budget exhausted")
    | Error e -> finish_unavailable t ~cache_key e

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  requests : int;
  retries : int;
  shed : int;
  degraded : int;
  degraded_miss : int;
  queue_dropped : int;
  queue_expired : int;
  breaker_trips : int;
  budget_balance : float;
  active : int;
  queued : int;
  breakers : string list;
}

let state_name = function
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half_open"

let stats (t : t) =
  let rs = Router.stats t.router in
  let ad = t.admission in
  Mutex.lock ad.amx;
  let active = ad.active and queued = live_waiters ad in
  Mutex.unlock ad.amx;
  Mutex.lock t.mx;
  let s =
    {
      requests = t.st_requests;
      retries = t.st_retries;
      shed = t.st_shed;
      degraded = t.st_degraded;
      degraded_miss = t.st_degraded_miss;
      queue_dropped = t.st_queue_dropped;
      queue_expired = t.st_queue_expired;
      breaker_trips = rs.Router.breaker_trips;
      budget_balance = Retry_budget.balance t.budget;
      active;
      queued;
      breakers =
        List.map (fun sh -> state_name sh.Router.breaker) rs.Router.shards;
    }
  in
  Mutex.unlock t.mx;
  s
