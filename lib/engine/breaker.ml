(* A per-shard circuit breaker over a sliding window of call
   outcomes.  See breaker.mli for the contract. *)

type state = Closed | Open | Half_open

type t = {
  window : bool array;  (* ring of outcomes; true = failure *)
  mutable filled : int;
  mutable pos : int;
  failures : int;
  cooldown_ms : float;
  mutable st : state;
  mutable open_until : float;
  mutable trial : bool;  (* the half-open probe slot is taken *)
  mx : Mutex.t;
}

let create ?(window = 16) ?(failures = 5) ?(cooldown_ms = 1000.) () =
  if window <= 0 then invalid_arg "Breaker.create: window <= 0";
  if failures <= 0 || failures > window then
    invalid_arg "Breaker.create: failures must be in 1..window";
  if cooldown_ms < 0. || not (Float.is_finite cooldown_ms) then
    invalid_arg "Breaker.create: cooldown_ms must be finite and >= 0";
  {
    window = Array.make window false;
    filled = 0;
    pos = 0;
    failures;
    cooldown_ms;
    st = Closed;
    open_until = 0.;
    trial = false;
    mx = Mutex.create ();
  }

(* under [mx]: an open breaker whose cooldown has elapsed becomes
   half-open the moment anyone looks at it *)
let sync t ~now =
  if t.st = Open && now >= t.open_until then begin
    t.st <- Half_open;
    t.trial <- false
  end

let state t ~now =
  Mutex.lock t.mx;
  sync t ~now;
  let s = t.st in
  Mutex.unlock t.mx;
  s

let allow t ~now =
  Mutex.lock t.mx;
  sync t ~now;
  let r =
    match t.st with
    | Closed -> true
    | Open -> false
    | Half_open ->
      if t.trial then false
      else begin
        t.trial <- true;
        true
      end
  in
  Mutex.unlock t.mx;
  r

let reset_window t =
  t.filled <- 0;
  t.pos <- 0

let record t ~now ~ok =
  Mutex.lock t.mx;
  sync t ~now;
  let tripped =
    match t.st with
    | Open -> false  (* a late reply from before the trip *)
    | Half_open ->
      t.trial <- false;
      if ok then begin
        t.st <- Closed;
        reset_window t;
        false
      end
      else begin
        t.st <- Open;
        t.open_until <- now +. (t.cooldown_ms /. 1000.);
        true
      end
    | Closed ->
      t.window.(t.pos) <- not ok;
      t.pos <- (t.pos + 1) mod Array.length t.window;
      if t.filled < Array.length t.window then t.filled <- t.filled + 1;
      let fails = ref 0 in
      for k = 0 to t.filled - 1 do
        if t.window.(k) then incr fails
      done;
      if !fails >= t.failures then begin
        t.st <- Open;
        t.open_until <- now +. (t.cooldown_ms /. 1000.);
        reset_window t;
        true
      end
      else false
  in
  Mutex.unlock t.mx;
  tripped

let abort t =
  Mutex.lock t.mx;
  if t.st = Half_open then t.trial <- false;
  Mutex.unlock t.mx
