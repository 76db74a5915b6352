type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let rec emit buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad (indent + 2));
        emit buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{";
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad (indent + 2));
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape key);
        Buffer.add_string buf "\": ";
        emit buf (indent + 2) value)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf
