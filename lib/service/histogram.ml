type t = {
  counts : int array;
  mutable total : int;
  mutable value_sum : int;
  mutable value_max : int;
}

(* OCaml ints are 63-bit, so max_int = 2^62 - 1 falls in bucket 61;
   62 buckets make the top bucket [2^61, max_int] reachable and keep
   every bucket_lo representable. *)
let buckets = 62

let create () =
  { counts = Array.make buckets 0; total = 0; value_sum = 0; value_max = 0 }

(* Tail-recursive integer log2 so [bucket_index] never allocates (a
   [ref] cell would). *)
let rec log2 acc x = if x <= 1 then acc else log2 (acc + 1) (x lsr 1)

let bucket_index v = if v <= 1 then 0 else log2 0 v
let bucket_lo i = if i = 0 then 0 else 1 lsl i

let bucket_hi i =
  if i >= buckets - 1 then max_int else (1 lsl (i + 1)) - 1

let record t v =
  t.counts.(bucket_index v) <- t.counts.(bucket_index v) + 1;
  t.total <- t.total + 1;
  t.value_sum <- t.value_sum + (if v < 0 then 0 else v);
  if v > t.value_max then t.value_max <- v

let count t = t.total
let sum t = t.value_sum
let max_value t = t.value_max
let bucket_count t i = t.counts.(i)

let percentile t p =
  if t.total = 0 then 0
  else begin
    let p = Float.min 1.0 (Float.max 0.0 p) in
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int t.total)) in
      if r < 1 then 1 else if r > t.total then t.total else r
    in
    let rec find i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank || i = buckets - 1 then bucket_hi i else find (i + 1) cum
    in
    find 0 0
  end

let merge ~into t =
  for i = 0 to buckets - 1 do
    into.counts.(i) <- into.counts.(i) + t.counts.(i)
  done;
  into.total <- into.total + t.total;
  into.value_sum <- into.value_sum + t.value_sum;
  if t.value_max > into.value_max then into.value_max <- t.value_max

let reset t =
  Array.fill t.counts 0 buckets 0;
  t.total <- 0;
  t.value_sum <- 0;
  t.value_max <- 0
