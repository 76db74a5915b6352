(** The unbounded k-multiplicative-accurate max register the paper sketches
    in Section I-B: Algorithm 2's recipe "plugged into" an unbounded exact
    max register.

    [Write(v)] stores [floor(log_k v) + 1] into an {!Maxreg.Unbounded_maxreg}
    (our stand-in for the Baig et al. [9] object, see DESIGN.md); [Read]
    maps the stored index [p] back to [k^p]. Both operations cost
    [O(log2 log_k v)] steps — sub-logarithmic in the value, the shape the
    paper claims for the amortized complexity of the plug-in construction. *)

type t

val create : Sim.Exec.t -> ?name:string -> k:int -> unit -> t
(** Build phase only. @raise Invalid_argument if [k < 2]. *)

val write : t -> pid:int -> int -> unit
(** In-fiber. @raise Invalid_argument on negative values; values up to
    [2^61 - 1] are supported. Writing 0 is a no-op. *)

val read : t -> pid:int -> int
(** In-fiber. Returns 0 or a power of [k], saturated at [max_int]
    where that power overflows. *)

val k : t -> int

val handle : t -> Obj_intf.max_register
