module Protocol = Tsg_engine.Protocol
module Server = Tsg_engine.Server

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> assert false

(* one child slot: [state] is [`Alive] while [pid] runs, [`Waiting]
   while a crashed replica sits out its restart backoff, [`Gone] once
   it was reaped for good *)
type member = {
  args : string list;  (** argv after the program name, for respawns *)
  ep : string;
  mutable pid : int;
  mutable state : [ `Alive | `Waiting | `Gone ];
  mutable started : float;
  mutable crashes : int;  (** consecutive abnormal exits *)
  mutable until : float;  (** restart not before this instant *)
}

type t = { exe : string; members : member array; proxy_member : member option }

let spawn ~exe args =
  Unix.create_process exe (Array.of_list ("tsa" :: args)) Unix.stdin Unix.stdout Unix.stderr

let terminate m =
  if m.state = `Alive then try Unix.kill m.pid Sys.sigterm with Unix.Unix_error _ -> ()

let reap m =
  let rec wait () =
    try ignore (Unix.waitpid [] m.pid) with
    | Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | Unix.Unix_error _ -> ()
  in
  if m.state = `Alive then wait ();
  m.state <- `Gone

let stop_all ms =
  List.iter terminate ms;
  List.iter reap ms

(* [Some status] once [m] has exited; it is then reaped and gone (as
   it is, silently, if it was reaped elsewhere) *)
let exited m =
  match Unix.waitpid [ Unix.WNOHANG ] m.pid with
  | 0, _ -> None
  | _, status ->
    m.state <- `Gone;
    Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | exception Unix.Unix_error _ ->
    m.state <- `Gone;
    None

let answers ep =
  match Server.endpoint_of_string ep with
  | Error _ -> false
  | Ok endpoint -> (
    match Server.call ~timeout_s:1. ~endpoint [ Protocol.request_to_string Stats ] with
    | _ -> true
    | exception (Unix.Unix_error _ | Failure _) -> false)

(* wait until every member answers; false as soon as one exits first,
   or once the readiness window is over *)
let await ms =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go = function
    | [] -> true
    | m :: rest as pending ->
      if exited m <> None || m.state = `Gone then false
      else if answers m.ep then go rest
      else if Unix.gettimeofday () > deadline then false
      else (Unix.sleepf 0.025; go pending)
  in
  go ms

let start ?cache_dir ?(cache_size = 1024) ?(host = "127.0.0.1")
    ?(base_port = 0) ?(proxy = false) ~exe ~replicas () =
  let shared = match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> [] in
  let started = ref [] in
  let launch args ep =
    let m =
      { args; ep; pid = spawn ~exe args; state = `Alive;
        started = Unix.gettimeofday (); crashes = 0; until = 0. }
    in
    started := m :: !started;
    m
  in
  let up () =
    let members =
      Array.init replicas (fun i ->
          let port = if base_port = 0 then free_port () else base_port + i in
          let ep = Printf.sprintf "%s:%d" host port in
          launch ([ "serve"; "--tcp"; ep; "--cache-size"; string_of_int cache_size ] @ shared) ep)
    in
    if not (await (Array.to_list members)) then Error "fleet failed to come up"
    else if not proxy then Ok { exe; members; proxy_member = None }
    else begin
      let listen = Printf.sprintf "%s:%d" host (free_port ()) in
      let eps = String.concat "," (Array.to_list (Array.map (fun m -> m.ep) members)) in
      let p = launch ([ "proxy"; "--listen"; listen; "--endpoints"; eps ] @ shared) listen in
      if await [ p ] then Ok { exe; members; proxy_member = Some p }
      else Error "proxy failed to come up"
    end
  in
  let result =
    try up ()
    with exn -> Error ("fleet failed to come up: " ^ Printexc.to_string exn)
  in
  if Result.is_error result then stop_all !started;
  result

let replicas t = Array.to_list (Array.map (fun m -> (m.pid, m.ep)) t.members)
let proxy t = Option.map (fun m -> m.ep) t.proxy_member

let restart_backoff ~crashes ~uptime_s =
  let crashes = (if uptime_s > 30. then 0 else crashes) + 1 in
  (crashes, Float.min 10. (0.5 *. (2. ** float_of_int (crashes - 1))))

type event =
  | Exited of { replica : int; endpoint : string; status : Unix.process_status }
  | Restarted of { replica : int; pid : int }

let supervise ~restart ~stop ~on_event t =
  let draining = ref false in
  let live () = Array.exists (fun m -> m.state <> `Gone) t.members in
  while live () do
    if Atomic.get stop then begin
      Atomic.set stop false;
      draining := true;
      Array.iter terminate t.members;
      Option.iter terminate t.proxy_member
    end;
    Array.iteri
      (fun i m ->
        match m.state with
        | `Gone -> ()
        | `Waiting ->
          if !draining then m.state <- `Gone
          else if Unix.gettimeofday () >= m.until then begin
            m.pid <- spawn ~exe:t.exe m.args;
            m.started <- Unix.gettimeofday ();
            m.state <- `Alive;
            on_event (Restarted { replica = i; pid = m.pid })
          end
        | `Alive -> (
          match exited m with
          | None -> ()
          | Some status ->
            on_event (Exited { replica = i; endpoint = m.ep; status });
            if restart && status <> Unix.WEXITED 0 && not !draining then begin
              let now = Unix.gettimeofday () in
              let crashes, delay =
                restart_backoff ~crashes:m.crashes ~uptime_s:(now -. m.started)
              in
              m.crashes <- crashes;
              m.until <- now +. delay;
              m.state <- `Waiting
            end
            else m.state <- `Gone))
      t.members;
    if live () then Unix.sleepf 0.1
  done

let stop t = stop_all (Option.to_list t.proxy_member @ Array.to_list t.members)
