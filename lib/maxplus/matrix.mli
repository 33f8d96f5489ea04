(** Dense matrices over the (max, +) semiring. *)

type t

val make : rows:int -> cols:int -> t
(** The zero matrix (every entry [-inf]). *)

val identity : int -> t
(** [one] on the diagonal, [zero] elsewhere. *)

val of_arrays : float array array -> t
(** Copies a rectangular array of rows.
    @raise Invalid_argument on ragged input. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add : t -> t -> t
(** Entrywise [max].  @raise Invalid_argument on dimension mismatch. *)

val mul : t -> t -> t
(** Max-plus product: [(A (X) B)_{ij} = max_k (A_{ik} + B_{kj})].
    @raise Invalid_argument on dimension mismatch. *)

val pow : t -> int -> t
(** [pow a k] is the [k]-th max-plus power (fast exponentiation);
    [pow a 0] is the identity.
    @raise Invalid_argument on a non-square matrix or negative [k]. *)

val apply : t -> float array -> float array
(** Matrix-vector product [A (X) x]. *)

val star : t -> t
(** The Kleene star [A* = I (+) A (+) A^2 (+) ...]: entry [(i, j)] is
    the weight of the best path from [j] to [i] (with the empty path
    allowed when [i = j]).  Finite iff no cycle of the precedence
    graph has positive weight.
    @raise Invalid_argument on a non-square matrix or when a positive
    cycle makes the star diverge. *)

val plus : t -> t
(** [A+ = A (X) A*]: best {e non-empty} path weights; the diagonal
    entry [(i, i)] is the best cycle weight through [i]. *)

val scale : float -> t -> t
(** [scale c a] adds [c] to every finite entry (max-plus scalar
    multiplication). *)

val equal : ?tol:float -> t -> t -> bool
val pp : t Fmt.t
