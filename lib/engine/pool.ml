type t = {
  size : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let recommended () = max 1 (Domain.recommended_domain_count ())

(* Workers drain the queue; when it is empty they block until either
   work arrives or the pool is closed.  Jobs are completion closures
   built by [map] and never raise. *)
let rec worker t =
  Mutex.lock t.mutex;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some job ->
      Mutex.unlock t.mutex;
      Some job
    | None ->
      if t.closed then begin
        Mutex.unlock t.mutex;
        None
      end
      else begin
        Condition.wait t.has_work t.mutex;
        next ()
      end
  in
  match next () with
  | None -> ()
  | Some job ->
    job ();
    worker t

let create ?size () =
  let size =
    match size with
    | None -> recommended ()
    | Some s -> max 1 (min s (recommended ()))
  in
  let t =
    {
      size;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
    }
  in
  t.domains <- List.init size (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
      let t = create () in
      default_pool := Some t;
      at_exit (fun () -> shutdown t);
      t
  in
  Mutex.unlock default_mutex;
  t

(* Claim-based self-scheduling: every participant (the caller plus
   [jobs - 1] pool workers) wraps its whole claim loop in [with_ctx] —
   acquiring per-worker state such as a scratch arena exactly once —
   and then claims items one at a time from a shared atomic index
   until none are left.  An optional [order] permutation turns the
   claim sequence into a schedule (e.g. heaviest item first) without
   disturbing where results land: item [i] always produces
   [results.(i)].  One participant runs inline, in input order, and
   never reaches the pool, so a jobs-1 caller neither creates the
   process-wide pool nor counts a claim. *)
let map_claims ?pool ~jobs ?order ~with_ctx ~f inputs =
  let n = Array.length inputs in
  (match order with
  | Some o when Array.length o <> n ->
    invalid_arg "Pool.map_claims: order must index every input exactly once"
  | _ -> ());
  if n = 0 then [||]
  else if min jobs n <= 1 then begin
    let out = ref [||] in
    with_ctx (fun ctx -> out := Array.map (f ctx) inputs);
    !out
  end
  else begin
    let t = match pool with Some t -> t | None -> default () in
    let slots = min (min jobs n - 1) t.size in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* smallest failing index wins, independently of scheduling *)
    let failure = Atomic.make None in
    let record i exn bt =
      let rec go () =
        match Atomic.get failure with
        | Some (j, _, _) when j <= i -> ()
        | prev ->
          if not (Atomic.compare_and_set failure prev (Some (i, exn, bt))) then go ()
      in
      go ()
    in
    let m = Mutex.create () in
    let all_done = Condition.create () in
    let done_count = ref 0 in
    (* a participant's fair share under static chunking; any claim
       beyond it is work taken over from a busier sibling — a "steal" *)
    let fair = (n + slots) / (slots + 1) in
    (* claim items from the shared counter until none are left; late
       slots that find the counter exhausted exit without touching
       anything, so they are harmless even after [map_claims] has
       returned.  [process] exceptions are recorded per item and the
       loop keeps claiming, so every item is always attempted. *)
    let claim_loop ?(count = true) process =
      let claimed = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let k = Atomic.fetch_and_add next 1 in
        if k >= n then continue_ := false
        else begin
          let i = match order with None -> k | Some o -> o.(k) in
          incr claimed;
          (* accounted per claim, before the item's completion is
             signalled, so by the time [map_claims] returns every claim
             of the batch is visible in the metrics *)
          if count then begin
            Metrics.incr "pool/claims";
            if !claimed > fair then Metrics.incr "pool/steals"
          end;
          (* the failpoint fires inside the per-item match, so an
             injected fault is indistinguishable from [f] itself
             raising: recorded for this item, siblings unaffected *)
          (match
             Tsg_obs.Failpoint.hit "pool/job";
             process i
           with
          | () -> ()
          | exception exn -> record i exn (Printexc.get_raw_backtrace ()));
          Mutex.lock m;
          incr done_count;
          if !done_count = n then Condition.signal all_done;
          Mutex.unlock m
        end
      done
    in
    let run_slot () =
      match
        with_ctx (fun ctx -> claim_loop (fun i -> results.(i) <- Some (f ctx inputs.(i))))
      with
      | () -> ()
      | exception exn ->
        (* the context bracket itself failed (e.g. scratch allocation):
           drain the remaining claims as failures of this exception so
           the rendezvous below still completes and the error surfaces *)
        let bt = Printexc.get_raw_backtrace () in
        claim_loop ~count:false (fun _ -> Printexc.raise_with_backtrace exn bt)
    in
    if slots > 0 then begin
      Mutex.lock t.mutex;
      if not t.closed then begin
        for _ = 1 to slots do
          Queue.add run_slot t.queue
        done;
        Condition.broadcast t.has_work
      end;
      Mutex.unlock t.mutex
    end;
    (* the caller helps: progress is guaranteed even if every worker
       is busy (or the pool was shut down), and nested maps cannot
       deadlock *)
    run_slot ();
    Mutex.lock m;
    while !done_count < n do
      Condition.wait all_done m
    done;
    Mutex.unlock m;
    (match Atomic.get failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map (function Some y -> y | None -> assert false) results
  end

let map ?pool ~jobs f inputs =
  map_claims ?pool ~jobs ~with_ctx:(fun k -> k ()) ~f:(fun () x -> f x) inputs
