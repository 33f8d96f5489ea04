(* Time budgets and cooperative cancellation.

   A deadline is an absolute expiry instant plus an atomic cancel
   flag.  Long-running pipeline stages call [check] at amortised
   intervals (every few thousand loop iterations, every simulation
   root, every exploration step); an expired or cancelled deadline
   raises [Deadline_exceeded], which unwinds cleanly — all kernel
   state is epoch-stamped arena data that the next query overwrites,
   so a cancelled analysis leaves its domain and pool slot reusable.

   The clock is [Unix.gettimeofday]: OCaml's stdlib exposes no
   monotonic clock, so a large backwards wall-clock step can extend a
   budget.  Budgets here are coarse resource fences (tens of ms and
   up), not precise timers, and the cancel flag is unaffected. *)

exception Deadline_exceeded

type t = {
  expires_at : float;  (* absolute seconds; infinity = no time budget *)
  cancel : bool Atomic.t;
  tripped : bool Atomic.t;  (* count the deadline/cancelled metric once *)
}

let none =
  { expires_at = infinity; cancel = Atomic.make false; tripped = Atomic.make false }

let make ?budget_ms () =
  let expires_at =
    match budget_ms with
    | None -> infinity
    | Some ms -> Unix.gettimeofday () +. (Float.max 0. ms /. 1000.)
  in
  { expires_at; cancel = Atomic.make false; tripped = Atomic.make false }

let cancel t = if t != none then Atomic.set t.cancel true

let expired t =
  Atomic.get t.cancel
  || (t.expires_at < infinity && Unix.gettimeofday () > t.expires_at)

let remaining_ms t =
  if t.expires_at = infinity then None
  else Some (Float.max 0. ((t.expires_at -. Unix.gettimeofday ()) *. 1000.))

let check t =
  if expired t then begin
    if not (Atomic.exchange t.tripped true) then Metrics.incr "deadline/cancelled";
    raise Deadline_exceeded
  end

(* ------------------------------------------------------------------ *)
(* The ambient deadline                                                *)

(* The only way a budget reaches an analysis: [Batch], the daemon,
   the proxy and the CLI wrap whole jobs in [with_deadline], and each
   entry point reads [current] once.  The slot is per sys-thread, not
   per-domain: the daemon runs every connection handler on a thread of
   the same domain, and a domain-local slot would let concurrent
   requests clobber each other's budgets.  Thread ids are globally
   unique, so one mutex-protected table covers pool worker domains and
   server threads alike; [current] sits outside the hot loops, so the
   lock is not a contention point.  A stage that fans out to other
   domains carries the value it read (Timing_sim.simulate_many) or
   installs it there (Batch.run, which also runs what-if sweeps). *)
let slots : (int, t) Hashtbl.t = Hashtbl.create 32
let slots_mutex = Mutex.create ()

let self_id () = Thread.id (Thread.self ())

let current () =
  let id = self_id () in
  Mutex.lock slots_mutex;
  let d = match Hashtbl.find_opt slots id with Some d -> d | None -> none in
  Mutex.unlock slots_mutex;
  d

let with_deadline t f =
  let id = self_id () in
  Mutex.lock slots_mutex;
  let saved = Hashtbl.find_opt slots id in
  Hashtbl.replace slots id t;
  Mutex.unlock slots_mutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock slots_mutex;
      (* dropping the outermost entry keeps the table sized by threads
         currently inside a [with_deadline], not by threads ever seen *)
      (match saved with
      | Some d -> Hashtbl.replace slots id d
      | None -> Hashtbl.remove slots id);
      Mutex.unlock slots_mutex)
    f

let error_message t =
  if Atomic.get t.cancel then "deadline_exceeded: analysis cancelled"
  else "deadline_exceeded: analysis exceeded its time budget"
