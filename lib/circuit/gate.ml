type t = Input | Buf | Not | And | Or | Nand | Nor | Xor | Xnor | C | Majority

let arity_ok gate n =
  match gate with
  | Input -> n = 0
  | Buf | Not -> n = 1
  | Majority -> n >= 3 && n mod 2 = 1
  | And | Or | Nand | Nor | Xor | Xnor | C -> n >= 1

let eval gate ~current ~inputs =
  if not (arity_ok gate (List.length inputs)) then
    invalid_arg "Gate.eval: arity violation";
  let all_true () = List.for_all Fun.id inputs in
  let all_false () = List.for_all not inputs in
  let parity () = List.fold_left (fun acc b -> if b then not acc else acc) false inputs in
  match gate with
  | Input -> current
  | Buf -> List.hd inputs
  | Not -> not (List.hd inputs)
  | And -> all_true ()
  | Or -> not (all_false ())
  | Nand -> not (all_true ())
  | Nor -> all_false ()
  | Xor -> parity ()
  | Xnor -> not (parity ())
  | C -> if all_true () then true else if all_false () then false else current
  | Majority ->
    let ones = List.fold_left (fun acc b -> if b then acc + 1 else acc) 0 inputs in
    2 * ones > List.length inputs

let to_string = function
  | Input -> "input"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | C -> "c"
  | Majority -> "maj"

let of_string = function
  | "input" -> Some Input
  | "buf" -> Some Buf
  | "not" | "inv" -> Some Not
  | "and" -> Some And
  | "or" -> Some Or
  | "nand" -> Some Nand
  | "nor" -> Some Nor
  | "xor" -> Some Xor
  | "xnor" -> Some Xnor
  | "c" -> Some C
  | "maj" -> Some Majority
  | _ -> None

let pp ppf g = Fmt.string ppf (to_string g)
