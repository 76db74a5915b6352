(** Exact integer arithmetic helpers shared by the algorithms and the
    experiments: powers, integer logarithms and the k-multiplicative
    accuracy predicate, all overflow-checked. *)

exception Overflow
(** Raised when a result would not fit in an OCaml [int]. *)

val pow : int -> int -> int
(** [pow k e] is [k^e] for [k >= 0], [e >= 0].
    @raise Overflow on overflow.
    @raise Invalid_argument on negative arguments. *)

val pow_opt : int -> int -> int option
(** Like {!pow} but [None] on overflow. *)

val pow_sat : int -> int -> int
(** [pow_sat k e] is [min (k^e) max_int]: like {!pow}, but saturating
    at [max_int] instead of raising. *)

val mul_opt : int -> int -> int option
(** Overflow-checked product of non-negative ints; [None] on overflow. *)

val floor_log : base:int -> int -> int
(** [floor_log ~base v] is the largest [e] with [base^e <= v], for
    [base >= 2] and [v >= 1].
    @raise Invalid_argument if [base < 2] or [v < 1]. *)

val ceil_log : base:int -> int -> int
(** [ceil_log ~base v] is the smallest [e] with [base^e >= v], for
    [base >= 2] and [v >= 1]. *)

val ceil_log2 : int -> int
(** [ceil_log2 v = ceil_log ~base:2 v]. *)

val ceil_sqrt : int -> int
(** [ceil_sqrt v] is the smallest [s >= 0] with [s * s >= v], for
    [v >= 0]. *)

val is_power : base:int -> int -> bool
(** Whether [v] is an exact power of [base] ([base^0 = 1] included). *)

val within_k : k:int -> exact:int -> int -> bool
(** [within_k ~k ~exact x] decides the k-multiplicative accuracy relation
    [exact / k <= x <= exact * k] over the rationals (no integer-division
    artefacts, no overflow): equivalently [exact <= x * k] and
    [x <= exact * k]. Requires [k >= 1], [exact >= 0], [x >= 0]. *)

val geometric_sum : base:int -> lo:int -> hi:int -> int
(** [geometric_sum ~base ~lo ~hi] is [sum over l in lo..hi of base^l]
    ([0] when [lo > hi]). @raise Overflow on overflow. *)
