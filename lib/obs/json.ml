type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Writer of (Buffer.t -> unit)

external format_float : string -> float -> string = "caml_format_float"

(* ------------------------------------------------------------------ *)
(* Numbers                                                             *)

(* decimal digits of [n >= 0] *)
let digit_count n =
  let rec go k p = if n < p || k = 19 then k else go (k + 1) (p * 10) in
  go 1 10

(* the digits of [n >= 0] into [b] ending just before [stop] *)
let rec put_digits b stop n =
  Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b (stop - 1) (n / 10)

let add_int buf n =
  if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    let b = Bytes.create 20 in
    let a = abs n in
    let len = digit_count a + if n < 0 then 1 else 0 in
    put_digits b len a;
    if n < 0 then Bytes.unsafe_set b 0 '-';
    Buffer.add_subbytes buf b 0 len
  end

let two52 = 0x1p52
let frac_mask = (1 lsl 52) - 1
let half_ulp = 1 lsl 51

(* [%.17g] of a non-integral [x] with [1 <= |x| < 2^52], from exact
   integer arithmetic.  The integer part [ip] has [k <= 16] digits, so
   [%.17g] is fixed notation with [17 - k] fraction digits.  The
   fraction is [n / 2^52] exactly ([x]'s ulp is at least [2^-52]):
   each digit is [n * 10 lsr 52], and the remainder rounds half to
   even, as C's printf does.  A round-up never carries out of the
   fraction: 17 digits tell every double apart, so [x] cannot round to
   the double [ip + 1].  Trailing zeros go, as [%g] drops them. *)
let add_fixed17 buf x =
  let a = Float.abs x in
  let ip = Float.to_int a in
  let m = 17 - digit_count ip in
  let b = Bytes.create 17 in
  let n = ref (Float.to_int ((a -. Float.of_int ip) *. two52)) in
  for i = 0 to m - 1 do
    let t = !n * 10 in
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (t lsr 52)));
    n := t land frac_mask
  done;
  let odd = Char.code (Bytes.get b (m - 1)) land 1 = 1 in
  if !n > half_ulp || (!n = half_ulp && odd) then begin
    let rec carry i =
      match Bytes.get b i with
      | '9' ->
        Bytes.set b i '0';
        carry (i - 1)
      | c -> Bytes.set b i (Char.chr (Char.code c + 1))
    in
    carry (m - 1)
  end;
  let rec stripped len = if len > 0 && Bytes.get b (len - 1) = '0' then stripped (len - 1) else len in
  let len = stripped m in
  add_int buf (if x < 0. then -ip else ip);
  if len > 0 then begin
    Buffer.add_char buf '.';
    Buffer.add_subbytes buf b 0 len
  end

(* integral values below 1e15 print without a fraction (["%.0f"]),
   everything else as [%.17g]; the two fast paths give the same bytes
   as printf *)
let add_float buf x =
  let a = Float.abs x in
  if Float.is_integer x && a < 1e15 then
    if x = 0. && Float.sign_bit x then Buffer.add_string buf "-0"
    else add_int buf (Float.to_int x)
  else if a >= 1. && a < two52 then add_fixed17 buf x
  else Buffer.add_string buf (format_float "%.17g" x)

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)

let hex = "0123456789abcdef"

(* [s] quoted, escaped in place: the runs between escapes go into
   [buf] as substrings, so a string with nothing to escape is one
   blit *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  let flush start i = if i > start then Buffer.add_substring buf s start (i - start) in
  let rec go start i =
    if i = String.length s then flush start i
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        flush start i;
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]);
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

(* ------------------------------------------------------------------ *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  (* JSON has no infinities; callers encode them as null before here *)
  | Float f -> add_float buf f
  | String s -> add_quoted buf s
  | Writer w -> w buf
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_quoted buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  write buf json;
  Buffer.contents buf
