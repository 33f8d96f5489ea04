(* The JSON writer's spelling laws.  Tsg_obs.Json prints numbers and
   strings without printf, but its bytes are a wire contract (golden
   digests, disk-cached responses), so each fast path is checked
   against the printf-based spelling it replaced, over a fixed seed. *)

module Json = Tsg_obs.Json

(* the float spelling the writer must keep: integral below 1e15 with
   no fraction, everything else %.17g *)
let reference_float x =
  if Float.is_integer x && abs_float x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* the escaper the writer replaced: a Buffer and a copy per string *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  "\"" ^ Buffer.contents buf ^ "\""

let pow10 = Array.init 17 (fun e -> Float.of_string ("1e" ^ string_of_int e))

(* every double in [x - k ulps, x + k ulps] *)
let neighbourhood x k =
  let rec down x n acc = if n = 0 then acc else down (Float.pred x) (n - 1) (x :: acc) in
  let rec up x n acc = if n = 0 then acc else up (Float.succ x) (n - 1) (x :: acc) in
  down (Float.pred x) k (up x (k + 1) [])

(* [n] doubles from each class, plus the fixed boundary values *)
let float_classes st n =
  let r = Random.State.float st and int = Random.State.int st in
  let bits () = Random.State.int64 st Int64.max_int in
  let rec finite () =
    let x = Int64.float_of_bits (if Random.State.bool st then bits () else Int64.neg (bits ())) in
    if Float.is_finite x then x else finite ()
  in
  let classes =
    [
      (* uniform *)
      (fun () -> r 5e4);
      (* k/p rationals, the shape of t/i averages *)
      (fun () -> float_of_int (int 10_000_000) /. float_of_int (1 + int 1000));
      (* random finite bit patterns, every exponent *)
      finite;
      (* dyadic k/2^s; s = 18 - digits puts an exact tie at the 18th
         significant digit, which printf rounds half to even *)
      (fun () ->
        let digits = 1 + int 15 in
        let low = Float.to_int pow10.(digits - 1) in
        let ip = low + Random.State.full_int st (9 * low) in
        let s = if Random.State.bool st then max 1 (18 - digits) else 1 + int 52 in
        float_of_int ip +. Float.ldexp (float_of_int (Random.State.full_int st (1 lsl s))) (-s));
      (* just below a power of ten or an integer: the rounding carries
         into the integer part *)
      (fun () ->
        let base = if Random.State.bool st then pow10.(int 16) else float_of_int (1 + int 1_000_000) in
        let rec below x d = if d = 0 then x else below (Float.pred x) (d - 1) in
        below base (1 + int 64));
      (* |x| < 1, subnormals included *)
      (fun () ->
        match int 3 with
        | 0 -> r 1.
        | 1 -> Float.ldexp (r 1.) (-int 1074)
        | _ -> Int64.float_of_bits (Random.State.int64 st 0x10_0000_0000_0000L));
      (* integral values on both sides of 1e15 and 2^52 *)
      (fun () -> Float.round (r pow10.(int 17)));
    ]
  in
  let boundaries =
    List.concat_map
      (fun x -> neighbourhood x 2000)
      [ 0x1p52; 0x1p53; 1e15; 1.; 1e16; 0.5 ]
    @ [ 0.; -0.; Float.max_float; Float.min_float; 4.9e-324; Float.epsilon; 1e-5; 1e-4;
        0.0001; 123456789012345.6; 999999999999999.9; 4503599627370495.5; nan; infinity;
        neg_infinity ]
  in
  let sign x = if Random.State.bool st then x else -.x in
  List.concat_map (fun gen -> List.init n (fun _ -> sign (gen ()))) classes
  @ boundaries
  @ List.map Float.neg boundaries

let test_float_law () =
  let st = Random.State.make [| 20 |] in
  let xs = float_classes st 150_000 in
  let checked = ref 0 in
  List.iter
    (fun x ->
      incr checked;
      let got = Json.to_string (Float x) and want = reference_float x in
      if got <> want then
        Alcotest.failf "Float %h: writer %S, printf %S" x got want)
    xs;
  Alcotest.(check bool) "at least a million doubles" true (!checked >= 1_000_000)

let test_int_law () =
  let st = Random.State.make [| 21 |] in
  let ints =
    [ 0; 1; -1; 9; 10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.init 100_000 (fun i ->
          let x = Random.State.bits st lsl (i mod 40) in
          if i land 1 = 0 then x else -x)
  in
  List.iter
    (fun i -> Alcotest.(check string) "Int" (string_of_int i) (Json.to_string (Int i)))
    ints

let test_string_law () =
  let st = Random.State.make [| 22 |] in
  (* quotes, backslashes, every control character, plain ASCII and
     bytes of multi-byte UTF-8 sequences *)
  let alphabet = "\"\\\n\r\t\b\012\000\031\127 az09_+-/\xc3\xa9\xe2\x82\xac" in
  let random_string () =
    let n = Random.State.int st 24 in
    String.init n (fun _ ->
        if Random.State.int st 4 = 0 then Char.chr (Random.State.int st 32)
        else alphabet.[Random.State.int st (String.length alphabet)])
  in
  List.iter
    (fun s ->
      Alcotest.(check string) (String.escaped s) (reference_escape s) (Json.to_string (String s));
      (* object keys take the same path *)
      Alcotest.(check string) "key"
        ("{" ^ reference_escape s ^ ":null}")
        (Json.to_string (Obj [ (s, Null) ])))
    ("" :: "plain" :: String.init 32 Char.chr :: List.init 100_000 (fun _ -> random_string ()))

let test_writer () =
  let w = Json.Writer (fun buf -> Json.write buf (List [ Int 1; Float 0.5 ])) in
  Alcotest.(check string) "spliced in place" {|{"a":[1,0.5],"b":"x"}|}
    (Json.to_string (Obj [ ("a", w); ("b", String "x") ]))

let suite =
  [
    Alcotest.test_case "float spelling matches printf" `Quick test_float_law;
    Alcotest.test_case "int spelling matches string_of_int" `Quick test_int_law;
    Alcotest.test_case "string escaping matches the reference" `Quick test_string_law;
    Alcotest.test_case "writer values render in place" `Quick test_writer;
  ]
