(** A minimal JSON value and its compact writer: the one spelling of
    every JSON byte the repo emits — reports ([Tsg_io.Json_report]),
    replies ([Tsg_io.Rpc]), request and error lines
    ([Tsg_engine.Protocol]) and Chrome trace exports ({!Trace}).  It
    lives in this leaf library so that every layer above can use it.

    The writer emits no newlines, so every rendered value is a valid
    line of a newline-delimited JSON stream.  Floats are printed with
    full precision ([%.17g], round-trip exact); integral floats below
    [1e15] are printed without a fractional part ([-0.] as [-0]).
    That spelling is a wire contract: cached responses and golden
    digests depend on it, and the test suite checks it against
    printf on over a million doubles.  Numbers and strings are written
    straight into one output buffer, without printf (except for the
    floats outside [1 <= |x| < 2^52] that are not integral) and
    without a copy per string.  JSON has no infinities or NaN —
    encode those as {!Null} (or a string) before rendering. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Writer of (Buffer.t -> unit)
      (** appends one value to the output buffer when rendered: a
          bulky value (a report's sample table) is written straight
          into the response instead of being built as a tree first.
          The writer must append exactly one valid JSON value (it may
          use {!write}). *)

val write : Buffer.t -> t -> unit
(** Append the compact rendering to a buffer. *)

val to_string : t -> string
(** Render compactly (no spaces, no newlines). *)
