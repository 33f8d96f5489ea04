(* A local fleet under test: two `tsa serve --socket` replicas sharing
   one disk-cache directory, behind one `tsa proxy` at its defaults. *)

module Server = Tsg_engine.Server

type proc = { pid : int; endpoint : Server.endpoint; role : string }

type t = { replicas : proc list; proxy : proc; flags : string list }

(* every child ever spawned, so an aborted run still reaps them *)
let live : int list ref = ref []

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !live;
  live := []

let () = at_exit kill_all

(* Every endpoint is a Unix-domain socket under the round's work
   directory, named relative to the shared working directory: the fleet
   needs no TCP loopback (a sandbox without network may have none) and
   no free-port search, so no start-up can race another process for a
   port. *)
let socket ~dir name = Server.Unix_socket (Filename.concat dir (name ^ ".sock"))

(* Requests are routed by rendezvous hashing of the model digest over
   the replicas' endpoint strings, so which replica is a key's home
   depends on the socket names.  Try a number of name pairs and keep
   the one whose split of every group of (key, weight) pairs is most
   even: a lopsided split would make a run's throughput depend on the
   names it happened to get.  The names are a pure function of the
   directory, so the choice is too. *)
let balanced_sockets ~dir balance =
  let imbalance endpoints =
    let router = Tsg_engine.Router.create endpoints in
    Fun.protect ~finally:(fun () -> Tsg_engine.Router.close router) @@ fun () ->
    List.fold_left
      (fun acc group ->
        let on0, total =
          List.fold_left
            (fun (on0, total) (key, w) ->
              ((if Tsg_engine.Router.home router key = 0 then on0 +. w else on0), total +. w))
            (0., 0.) group
        in
        acc +. (Float.abs ((2. *. on0) -. total) /. total))
      0. balance
  in
  let tries = if balance = [] then 1 else 64 in
  let candidates =
    List.init tries (fun k ->
        List.init 2 (fun i -> socket ~dir (Printf.sprintf "replica%d-%d" i k)))
  in
  snd
    (List.fold_left
       (fun (best, eps) e ->
         let score = imbalance e in
         if score < best then (score, e) else (best, eps))
       (Float.infinity, List.hd candidates)
       candidates)

let spawn ~tsa ~log ~role ~endpoint args =
  let argv = Array.of_list (tsa :: args (Server.endpoint_to_string endpoint)) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.create_process tsa argv Unix.stdin fd fd
  in
  live := pid :: !live;
  { pid; endpoint; role }

let stats_line = {|{"op":"stats"}|}

let wait_ready p =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> ()
    | _ -> failwith (Printf.sprintf "%s exited during start-up" p.role));
    match Server.call ~endpoint:p.endpoint [ stats_line ] with
    | [ _ ] -> ()
    | _ | (exception (Unix.Unix_error _ | Failure _)) ->
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "%s not ready after 20 s" p.role);
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let start ~tsa ~dir ~cache_size ~balance =
  let cache_dir = Filename.concat dir "cache" in
  let replica_flags =
    [ "--cache-dir"; cache_dir ]
    @ match cache_size with Some n -> [ "--cache-size"; string_of_int n ] | None -> []
  in
  let replicas =
    List.mapi
      (fun i endpoint ->
        spawn ~tsa ~role:(Printf.sprintf "replica %d" i) ~endpoint
          ~log:(Filename.concat dir (Printf.sprintf "replica%d.log" i))
          (fun ep -> [ "serve"; "--socket"; ep ] @ replica_flags))
      (balanced_sockets ~dir balance)
  in
  let endpoints =
    String.concat "," (List.map (fun p -> Server.endpoint_to_string p.endpoint) replicas)
  in
  let proxy =
    spawn ~tsa ~role:"proxy" ~endpoint:(socket ~dir "proxy")
      ~log:(Filename.concat dir "proxy.log") (fun ep ->
        [ "proxy"; "--listen"; ep; "--endpoints"; endpoints ])
  in
  List.iter wait_ready (replicas @ [ proxy ]);
  {
    replicas;
    proxy;
    flags =
      [ "serve --socket PATH " ^ String.concat " " replica_flags;
        "proxy --listen PATH --endpoints REPLICA,REPLICA" ];
  }

let procs t = t.proxy :: t.replicas

(* ask politely (the proxy's shutdown drains the replicas behind it),
   then reap; anything still alive after a few seconds is killed *)
let stop t =
  (try ignore (Server.call ~timeout_s:5. ~endpoint:t.proxy.endpoint [ {|{"op":"shutdown"}|} ])
   with Unix.Unix_error _ | Failure _ -> ());
  let deadline = Unix.gettimeofday () +. 8. in
  let rec reap pending =
    let pending =
      List.filter
        (fun p ->
          match Unix.waitpid [ Unix.WNOHANG ] p.pid with
          | 0, _ -> true
          | _ -> false
          | exception Unix.Unix_error _ -> false)
        pending
    in
    if pending <> [] then
      if Unix.gettimeofday () > deadline then
        List.iter
          (fun p ->
            (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
          pending
      else (
        Unix.sleepf 0.02;
        reap pending)
  in
  reap (procs t);
  let ours = List.map (fun p -> p.pid) (procs t) in
  live := List.filter (fun pid -> not (List.mem pid ours)) !live

let replica_calls = Atomic.make 0
let replica_stats_calls () = Atomic.get replica_calls

let stats p =
  if p.role <> "proxy" then Atomic.incr replica_calls;
  match Server.call ~timeout_s:10. ~endpoint:p.endpoint [ stats_line ] with
  | [ line ] -> (
    match Tsg_engine.Protocol.json_of_string line with
    | Ok j -> j
    | Error msg -> failwith ("unparsable stats reply: " ^ msg))
  | _ -> failwith "no stats reply"

let cpu_ms t =
  List.fold_left
    (fun acc p -> acc +. Option.value (Fleetbench.Procfs.cpu_ms p.pid) ~default:0.)
    0. (procs t)

let peak_rss_mb t =
  List.fold_left
    (fun acc p ->
      Float.max acc
        (float_of_int (Option.value (Fleetbench.Procfs.peak_rss_kb p.pid) ~default:0)
        /. 1024.))
    0. (procs t)
