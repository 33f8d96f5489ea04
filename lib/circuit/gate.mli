(** Gate models for asynchronous circuits.

    Every gate computes a next output value from its current output and
    its input values.  Sequential gates (the Muller C-element and the
    majority-based variants) may hold their current value. *)

type t =
  | Input  (** a primary input, driven by the environment *)
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | C  (** Muller C-element: switches when all inputs agree *)
  | Majority  (** output follows the majority of the inputs *)

val arity_ok : t -> int -> bool
(** Whether the gate accepts the given number of inputs ([Input]: 0;
    [Buf]/[Not]: 1; [Majority]: odd >= 3; others: >= 1). *)

val eval : t -> current:bool -> inputs:bool list -> bool
(** The next output value.  For [Input] the output never changes here
    (the environment drives it).
    @raise Invalid_argument on an arity violation. *)

val to_string : t -> string
val of_string : string -> t option
val pp : t Fmt.t
