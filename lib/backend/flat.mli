(** Contiguous atomic int arrays.

    One flat block of unboxed slots with sequentially-consistent
    atomic access via C stubs — the memory layout that lets scans and
    tree walks issue independent cache-line loads, where
    [Padded.atomic_array]'s one-boxed-cell-per-slot layout forces a
    pointer dereference per slot. Adjacent slots share cache lines:
    great for read-mostly structures, a false-sharing hazard for slots
    written concurrently by distinct processes (space those out — see
    [Atomic_backend]'s stride-16 single-writer layouts).

    All operations are allocation-free. Indices are not bounds-checked:
    passing [i] outside [0 .. length t - 1] to {!get}, {!set},
    {!compare_and_set} or {!fetch_add} is undefined behaviour.
    {!prefetch} is only a hint and tolerates any index. *)

type t

val make : int -> int -> t
(** [make len init] is a fresh array of [len] slots holding [init].
    @raise Invalid_argument if [len < 0]. *)

val length : t -> int

external get : t -> int -> int = "caml_flat_get" [@@noalloc]
(** Seq_cst atomic load of slot [i]. *)

external set : t -> int -> int -> unit = "caml_flat_set" [@@noalloc]
(** Seq_cst atomic store to slot [i]. *)

external compare_and_set : t -> int -> int -> int -> bool = "caml_flat_cas"
[@@noalloc]
(** [compare_and_set t i expect desired]: one seq_cst CAS on slot [i];
    [true] iff the slot held [expect] and now holds [desired]. *)

external fetch_add : t -> int -> int -> int = "caml_flat_fetch_add"
[@@noalloc]
(** [fetch_add t i delta] atomically adds [delta] to slot [i] and
    returns the previous value. *)

external prefetch : t -> int -> unit = "caml_flat_prefetch" [@@noalloc]
(** Begin fetching slot [i]'s cache line in the background — a
    [__builtin_prefetch] hint, not a real load, so it retires
    immediately, never faults, and tolerates any index (hardware
    treats a bad address as a no-op). No memory-ordering effect and no
    observable value: purely a locality hint. *)
