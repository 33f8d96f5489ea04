(** Order statistics over latency samples. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [[0, 1]], interpolating linearly
    between the two closest ranks of the sorted samples.
    @raise Invalid_argument on an empty list or [p] outside [[0, 1]]. *)

val median : float list -> float

val mean : float list -> float
(** [0.] for no samples. *)

val beyond : n:int -> float -> int
(** [beyond ~n p] is the number of samples, out of [n], ranked
    strictly above the [p] percentile. *)

val tail_supported : n:int -> float -> bool
(** At least ten samples lie beyond the [p] percentile, the minimum
    for reporting it. *)

val ratio : int -> int -> float
(** [ratio num den], [0.] when [den = 0]. *)
