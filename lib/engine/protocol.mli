(** The wire protocol of the {!Server} daemon.

    Requests travel over the socket as {e newline-delimited JSON}: one
    request object per line, one response object per line, in order.
    This module owns the request side — a self-contained JSON parser
    and the request grammar — and the error line.  Requests and errors
    are written with the shared [Tsg_obs.Json] writer; responses are
    rendered by [Tsg_io.Rpc].

    The five requests:

    {v {"op":"analyze", "path":"benchmarks/fig1.g", "periods":4, "timeout_ms":500}
{"op":"batch", "paths":["a.g","b.g"], "periods":4, "jobs":2, "timeout_ms":500}
{"op":"sweep", "path":"benchmarks/fig1.g",
 "deltas":[{"arc":0,"delta":1.5}, [{"arc":0,"delta":1.0},{"arc":3,"delta":-0.5}]],
 "periods":4, "jobs":2, "timeout_ms":500}
{"op":"stats"}
{"op":"shutdown"} v}

    [periods], [jobs] and [timeout_ms] are optional everywhere they
    appear.  [timeout_ms] is a per-analysis time budget in
    milliseconds (per model for [batch], per scenario for [sweep]); a
    request that exceeds it gets a structured [deadline_exceeded]
    error response.

    Each element of a sweep's [deltas] is one {e scenario}: either a
    single edit object or a list of them applied together.  An edit
    object's optional ["op"] field selects its kind:

    {v {"arc":0,"delta":1.5}                                  delay (op omitted)
{"op":"delay","arc":0,"delta":1.5}                       delay (explicit)
{"op":"add","src":3,"dst":"b+","delay":2.0,"marked":false}
{"op":"remove","arc":246}
{"op":"mark","arc":119,"marked":true} v}

    [src]/[dst] of an [add] are event ids (integers) or event names
    (strings; resolved by the daemon against the model).  [marked]
    defaults to [false] for [add] and is mandatory for [mark].  The
    whole sweep shares one warm-started analysis of the base model
    ([Tsg.Whatif]); structural edits are repaired warm too, falling
    back to a cold analysis only when the border set moves. *)

val version : string
(** The protocol version string, ["tsa-rpc/5"]: version 1 spoke
    [analyze]/[batch]/[stats]/[shutdown]; version 2 added [sweep];
    version 3 added the TCP transport and the [transport]/[shard]/
    [disk_cache] fields of the [stats] response; version 4 added the
    structural sweep edits ([op] = [add]/[remove]/[mark]); version 5
    added the proxy tier's response markers — a [degraded:true] field
    on responses served stale from the disk cache while every live
    shard was unavailable, an ["overloaded"] error code, and the
    [proxy] block of the [stats] response.  An edit without an [op]
    field is a delay edit and unknown response fields are ignored by
    every parser in this repo, so every tsa-rpc/3 request is a valid
    tsa-rpc/5 request and a v4 client can talk to a v5 daemon (or
    proxy) unchanged.  Servers report it in the [stats] response;
    additions are backwards-compatible within a major version. *)

(** {1 JSON values} *)

(** A parsed JSON value.  Numbers are kept as [float] ([Number 2.] is
    both the integer [2] and the float [2.0]); object fields keep
    their textual order. *)
type json =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val json_of_string : string -> (json, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error).  Strings decode the standard escapes,
    including [\uXXXX] (encoded back to UTF-8). *)

val member : string -> json -> json option
(** [member k (Obj fields)] is the value of field [k]; [None] when the
    field is absent or the value is not an object. *)

(** {1 Requests} *)

type ev = Ev_id of int | Ev_name of string
(** An event reference in a structural edit: a dense event id, or an
    event name the daemon resolves against the loaded model. *)

type sweep_edit =
  | Sw_delay of { sw_arc : int; sw_delta : float }
      (** add [sw_delta] to the delay of Signal-Graph arc [sw_arc]
          (the only edit kind before tsa-rpc/4) *)
  | Sw_add of { sw_src : ev; sw_dst : ev; sw_delay : float; sw_marked : bool }
      (** insert a delay-annotated arc between existing events *)
  | Sw_remove of int  (** delete a base arc by id *)
  | Sw_mark of { sw_arc : int; sw_marked : bool }
      (** set a base arc's initial marking *)

type request =
  | Analyze of { path : string; periods : int option; timeout_ms : float option }
      (** analyze one model file (or built-in name) *)
  | Batch of {
      paths : string list;
      periods : int option;
      jobs : int option;
      timeout_ms : float option;
    }  (** analyze many files concurrently, fault-isolated *)
  | Sweep of {
      path : string;
      scenarios : sweep_edit list list;
      periods : int option;
      jobs : int option;
      timeout_ms : float option;
    }
      (** warm-start re-analysis of edit scenarios (delay and
          structural) against one shared base analysis of [path] *)
  | Stats  (** report metrics and cache statistics *)
  | Shutdown  (** answer once more, then stop the daemon *)

val parse_request : string -> (request, string) result
(** Parse one request line.  Errors are human-readable and safe to
    echo back to the client: malformed JSON, a missing or mistyped
    field, an integer field that is not integral with [|n| <= 2^53],
    an unknown ["op"], a non-positive or non-finite [timeout_ms], or
    nesting deeper than 256 levels (the parser is
    recursive; the cap keeps hostile input from exhausting the
    stack). *)

val request_to_string : request -> string
(** Render a request as its single-line JSON wire form (used by the
    [tsa client] side and by tests; [parse_request] inverts it).
    Numbers and strings follow the replies' contract ([Tsg_obs.Json]). *)

(** {1 Errors} *)

val error_line : ?code:string -> string -> string
(** [{"status":"error","code":...,"error":...}]: the one rendering of
    an error reply, for load failures, unanalyzable models, malformed
    requests and the daemon's own rejections.  [code] is the
    machine-readable member of the error taxonomy (see
    {!page-operations}): [bad_request], [deadline_exceeded],
    [overloaded], [too_large], [timeout], [internal], [unavailable];
    omitted for plain analysis failures. *)
