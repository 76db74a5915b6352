(** Minimal JSON serializer: the format of the committed BENCH_*.json
    records and of [approx_cli loadgen --json].

    The container has no JSON library, so this is a small dependency-free
    writer: a value AST plus pretty-printed emission. Non-finite floats
    serialize as [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed JSON text, newline-terminated. *)
