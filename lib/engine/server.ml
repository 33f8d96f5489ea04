type reply = Reply of string | Final of string

(* last-resort rendering for handler exceptions; the [code] field is
   the machine-readable half of the error taxonomy
   (doc/operations.mld): clients branch on it, humans read [error]. *)
let internal_error exn =
  Protocol.error_line ~code:"internal" ("internal error: " ^ Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Transport endpoints.  The protocol is newline-JSON either way; the
   only transport-specific parts are address resolution, the listening
   socket's options, and whether there is a socket file to unlink. *)

type endpoint = Unix_socket of string | Tcp of { host : string; port : int }

let endpoint_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 ->
      Ok (Tcp { host = (if host = "" then "127.0.0.1" else host); port = p })
    | Some p -> Error (Printf.sprintf "port %d out of range 0..65535" p)
    (* a colon but no numeric port: a Unix path like ./odd:name *)
    | None -> Ok (Unix_socket s))
  | None -> Ok (Unix_socket s)

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

(* numeric first (no resolver in the common case), then the resolver
   for names like "localhost" *)
let inet_addr_of_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match (Unix.gethostbyname host).Unix.h_addr_list with
    | [||] -> failwith (Printf.sprintf "host %S resolves to no address" host)
    | addrs -> addrs.(0)
    | exception Not_found -> failwith (Printf.sprintf "unknown host %S" host))

let sockaddr_of_endpoint = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp { host; port } -> Unix.ADDR_INET (inet_addr_of_host host, port)

let socket_of_endpoint ep =
  let domain =
    match ep with Unix_socket _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  Unix.socket domain Unix.SOCK_STREAM 0

(* ------------------------------------------------------------------ *)
(* Bounded, timeout-aware line framing over a raw descriptor.

   Buffered channels ([input_line]) would block forever on a client
   that trickles bytes and never sends the newline (slow loris), and
   happily accumulate an unbounded line.  The reader below relies on
   [SO_RCVTIMEO] set on the socket — a stalled [read] returns
   [EAGAIN]/[EWOULDBLOCK] — and refuses to buffer more than
   [max_bytes] of a single request line. *)

type read_outcome = Line of string | Eof | Timed_out | Too_long

type linebuf = {
  lb_fd : Unix.file_descr;
  lb_chunk : Bytes.t;
  lb_acc : Buffer.t;  (* the partial line read so far *)
  mutable lb_pending : string;  (* bytes already read past a newline *)
  lb_max : int;
}

let linebuf fd ~max_bytes =
  {
    lb_fd = fd;
    lb_chunk = Bytes.create 8192;
    lb_acc = Buffer.create 256;
    lb_pending = "";
    lb_max = max_bytes;
  }

let read_line lb =
  let rec go () =
    match String.index_opt lb.lb_pending '\n' with
    | Some i ->
      Buffer.add_substring lb.lb_acc lb.lb_pending 0 i;
      lb.lb_pending <-
        String.sub lb.lb_pending (i + 1) (String.length lb.lb_pending - i - 1);
      let line = Buffer.contents lb.lb_acc in
      Buffer.clear lb.lb_acc;
      if String.length line > lb.lb_max then Too_long else Line line
    | None ->
      Buffer.add_string lb.lb_acc lb.lb_pending;
      lb.lb_pending <- "";
      if Buffer.length lb.lb_acc > lb.lb_max then Too_long
      else begin
        match Unix.read lb.lb_fd lb.lb_chunk 0 (Bytes.length lb.lb_chunk) with
        | 0 -> Eof (* a partial line at EOF is not a request *)
        | n ->
          lb.lb_pending <- Bytes.sub_string lb.lb_chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Timed_out
        | exception Unix.Unix_error _ -> Eof
      end
  in
  go ()

exception Write_timeout

(* [SO_SNDTIMEO] turns a reader that never drains its socket (the
   write-side slow loris) into [EAGAIN] here *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Write_timeout
  done

(* ------------------------------------------------------------------ *)
(* the set of live client sockets, so shutdown can unblock readers *)
type connections = {
  mutex : Mutex.t;
  tbl : (int, Unix.file_descr) Hashtbl.t;  (* keyed by a connection id *)
  mutable next_id : int;
}

let register conns fd =
  Mutex.lock conns.mutex;
  let id = conns.next_id in
  conns.next_id <- id + 1;
  Hashtbl.replace conns.tbl id fd;
  Mutex.unlock conns.mutex;
  id

let forget conns id =
  Mutex.lock conns.mutex;
  let fd = Hashtbl.find_opt conns.tbl id in
  Hashtbl.remove conns.tbl id;
  Mutex.unlock conns.mutex;
  fd

let live conns =
  Mutex.lock conns.mutex;
  let n = Hashtbl.length conns.tbl in
  Mutex.unlock conns.mutex;
  n

(* [Unix.close] does not wake a thread blocked reading the same fd,
   but [Unix.shutdown] does (the read returns EOF); each connection
   thread then closes its own descriptor on the way out *)
let shutdown_all conns =
  Mutex.lock conns.mutex;
  let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) conns.tbl [] in
  Mutex.unlock conns.mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    fds

let handle_connection ~stop ~active ~handler ~max_request_bytes conns id fd =
  let lb = linebuf fd ~max_bytes:max_request_bytes in
  let send line =
    write_all fd line;
    write_all fd "\n"
  in
  let respond line =
    Metrics.incr "server/requests";
    (* in-flight requests hold the drain open; idle readers do not *)
    Atomic.incr active;
    Fun.protect ~finally:(fun () -> Atomic.decr active) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let reply =
      Tsg_obs.Trace.with_span "server/request" (fun () ->
          try
            Tsg_obs.Failpoint.hit "server/request";
            handler line
          with exn -> Reply (internal_error exn))
    in
    let text, final = match reply with Reply s -> (s, false) | Final s -> (s, true) in
    (* a Final (shutdown) request takes effect even when the client
       vanishes before reading its reply, so stop before the send *)
    if final then Atomic.set stop true;
    send text;
    (* latency includes writing the response back — what a client sees *)
    Metrics.observe_ms "server/request_ms" ((Unix.gettimeofday () -. t0) *. 1000.);
    final
  in
  let rec loop () =
    match read_line lb with
    | Line line -> (
      (* [respond] writes the reply, so it — not [read_line] — is
         where a reset-while-replying or stalled reader surfaces *)
      match respond line with
      | final -> if final then () else loop ()
      | exception Write_timeout -> Metrics.incr "server/timeouts"
      (* a vanished client (reset, broken pipe) ends the connection
         quietly; the request itself was already counted *)
      | exception (Sys_error _ | Unix.Unix_error _) -> ())
    | Eof -> ()
    | Timed_out ->
      (* the slow (or absent) client gets one structured goodbye; if
         even that write stalls, just drop the connection *)
      Metrics.incr "server/timeouts";
      (try send (Protocol.error_line ~code:"timeout" "connection idle past the read timeout")
       with Write_timeout | Unix.Unix_error _ -> ())
    | Too_long ->
      Metrics.incr "server/rejected";
      (try
         send
           (Protocol.error_line ~code:"too_large"
              (Printf.sprintf "request exceeds %d bytes" max_request_bytes))
       with Write_timeout | Unix.Unix_error _ -> ())
    (* a reader unblocked by shutdown ends the connection quietly *)
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      match forget conns id with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    loop

let serve ?(backlog = 16) ?(max_connections = 64) ?(max_request_bytes = 1 lsl 20)
    ?(read_timeout_s = 30.) ?(write_timeout_s = 30.) ?(drain_timeout_s = 5.) ?stop
    ?on_ready ~endpoint ~handler () =
  (* without this, the first write to a client that already closed its
     socket delivers SIGPIPE and kills the whole daemon; ignored, the
     write surfaces as EPIPE and the connection ends quietly *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = socket_of_endpoint endpoint in
  (match endpoint with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
  (try
     Unix.bind listen_fd (sockaddr_of_endpoint endpoint);
     Unix.listen listen_fd backlog
   with exn ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise exn);
  (* the endpoint as actually bound: for Tcp {port = 0} the kernel
     picked the port, and callers need it to reach us *)
  let bound_endpoint =
    match endpoint with
    | Unix_socket _ -> endpoint
    | Tcp { host; _ } -> (
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, port) -> Tcp { host; port }
      | _ -> endpoint)
  in
  (match on_ready with Some f -> f bound_endpoint | None -> ());
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  let active = Atomic.make 0 in
  let conns = { mutex = Mutex.create (); tbl = Hashtbl.create 8; next_id = 0 } in
  (* live connection threads, pruned as they finish so a long-lived
     daemon's memory is bounded by concurrent — not total — clients;
     only the accept loop touches this list *)
  let threads : (Thread.t * bool Atomic.t) list ref = ref [] in
  let prune_threads () =
    threads :=
      List.filter
        (fun (t, finished) ->
          if Atomic.get finished then begin
            Thread.join t;  (* already terminated: returns immediately *)
            false
          end
          else true)
        !threads
  in
  let configure_client fd =
    if read_timeout_s > 0. then Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
    if write_timeout_s > 0. then Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_timeout_s;
    (* one-line request/response traffic must not wait on Nagle *)
    match endpoint with
    | Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
    | Unix_socket _ -> ()
  in
  (* admission control: past the connection limit a client gets a
     structured refusal instead of silently queueing behind the
     backlog — it can back off and retry ({!call} does) *)
  let reject fd =
    Metrics.incr "server/rejected";
    (try
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.;
       write_all fd (Protocol.error_line ~code:"overloaded" "server is at its connection limit");
       write_all fd "\n"
     with Write_timeout | Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* the accept loop polls so a Final reply (set on a connection
     thread) — or an external [stop], e.g. a signal handler — is
     noticed within a poll interval even with no new client *)
  let accept_backoff = ref 0.05 in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      match Unix.select [ listen_fd ] [] [] 0.1 with
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ ->
        (match
           Tsg_obs.Failpoint.hit "server/accept-emfile";
           Unix.accept listen_fd
         with
        | fd, _ ->
          accept_backoff := 0.05;
          prune_threads ();
          if live conns >= max_connections then reject fd
          else begin
            Metrics.incr "server/connections";
            configure_client fd;
            let id = register conns fd in
            let finished = Atomic.make false in
            let t =
              Thread.create
                (fun () ->
                  Fun.protect
                    ~finally:(fun () -> Atomic.set finished true)
                    (fun () ->
                      handle_connection ~stop ~active ~handler ~max_request_bytes
                        conns id fd))
                ()
            in
            threads := (t, finished) :: !threads
          end
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
        | exception
            ( Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _)
            | Tsg_obs.Failpoint.Injected _ ) ->
          (* out of descriptors: dying here would take the daemon down
             exactly when load is highest.  Some connection threads
             will finish and free fds — back off and try again. *)
          Metrics.incr "server/accept_backoff";
          Unix.sleepf !accept_backoff;
          accept_backoff := Float.min 1. (!accept_backoff *. 2.));
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (* graceful drain: no new clients are admitted, but requests
         already executing get [drain_timeout_s] to finish and write
         their responses before the sockets are yanked *)
      let drain_until = Unix.gettimeofday () +. drain_timeout_s in
      while Atomic.get active > 0 && Unix.gettimeofday () < drain_until do
        Unix.sleepf 0.005
      done;
      (* unblock any thread still waiting on its client, then join *)
      shutdown_all conns;
      List.iter (fun (t, _) -> Thread.join t) !threads;
      match endpoint with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    accept_loop

let jitter_state = lazy (Random.State.make_self_init ())

let call ?(retries = 0) ?(backoff_ms = 50.) ?timeout_s ~endpoint requests =
  let attempt () =
    let fd = socket_of_endpoint endpoint in
    (try
       Unix.connect fd (sockaddr_of_endpoint endpoint);
       (match timeout_s with
       | Some s when s > 0. ->
         (* bound the whole conversation per read/write: a wedged
            server turns into an error here instead of a client that
            hangs forever (the proxy's breakers depend on this) *)
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
       | _ -> ());
       match endpoint with
       | Tcp _ -> (
         try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ())
       | Unix_socket _ -> ()
     with exn ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise exn);
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        List.map
          (fun request ->
            (* a daemon at its connection limit writes its refusal and
               hangs up without reading, so the write can fail with
               EPIPE or ECONNRESET; the refusal (if any) is still there
               to read, and a missing one surfaces as [Failure] below.
               A peer that is still there but not reading is a wedged
               server: fail now rather than wait [timeout_s] again for
               a reply that cannot come. *)
            (try write_all fd (request ^ "\n") with
            | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
            | Write_timeout -> failwith "Server.call: write timed out");
            match input_line ic with
            | line -> line
            | exception End_of_file ->
              failwith "Server.call: connection closed before a response arrived"
            | exception Sys_blocked_io ->
              (* a SO_RCVTIMEO expiry: the channel layer reads EAGAIN *)
              failwith "Server.call: read timed out"
            | exception Sys_error msg -> failwith ("Server.call: " ^ msg))
          requests)
  in
  let rec go attempt_no delay_ms =
    match attempt () with
    | responses -> responses
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EAGAIN), _, _)
      when attempt_no < retries ->
      (* full jitter on an exponential base: concurrent clients that
         all saw the same refusal spread out instead of stampeding
         back in lockstep.  A self-seeded state, not the global
         [Random] (whose default seed is fixed, so concurrently
         started processes would draw identical "jitter"). *)
      let jittered =
        delay_ms *. (0.5 +. Random.State.float (Lazy.force jitter_state) 1.)
      in
      Unix.sleepf (jittered /. 1000.);
      go (attempt_no + 1) (Float.min 2000. (delay_ms *. 2.))
  in
  go 0 backoff_ms
