type t = {
  mutex : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable latencies_ms : float list;
  mutable failures : string list;  (* newest first, capped *)
}

let max_kept_failures = 5

let create () =
  { mutex = Mutex.create (); attempted = 0; failed = 0; latencies_ms = []; failures = [] }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let answered t ms =
  with_lock t @@ fun () ->
  t.attempted <- t.attempted + 1;
  t.latencies_ms <- ms :: t.latencies_ms

let failed t reason =
  with_lock t @@ fun () ->
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if List.length t.failures < max_kept_failures then t.failures <- reason :: t.failures

let attempted t = with_lock t (fun () -> t.attempted)
let failures t = with_lock t (fun () -> t.failed)
let completed t = with_lock t (fun () -> t.attempted - t.failed)
let latencies_ms t = with_lock t (fun () -> List.rev t.latencies_ms)
let failure_reasons t = with_lock t (fun () -> List.rev t.failures)
let error_rate t = with_lock t (fun () -> Stats.ratio t.failed t.attempted)

(* a reply is a success only when it is an ok payload: error lines
   (overloaded, unavailable, deadline_exceeded, ...) are refusals even
   though the transport worked.  A degraded reply is judged by the
   payload it wraps. *)
let classify line =
  let payload = Option.value (Tsg_engine.Proxy.strip_degraded line) ~default:line in
  let ok_prefix = {|{"status":"ok"|} in
  if String.length payload >= String.length ok_prefix
     && String.sub payload 0 (String.length ok_prefix) = ok_prefix
  then Ok payload
  else Error (if String.length payload > 200 then String.sub payload 0 200 else payload)
