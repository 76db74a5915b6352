exception Overflow

let mul_opt a b =
  if a < 0 || b < 0 then invalid_arg "Zmath.mul_opt: negative argument";
  if a = 0 || b = 0 then Some 0
  else if a > max_int / b then None
  else Some (a * b)

(* [pow], [floor_log] and [within_k] sit on the multicore hot paths
   (every non-trivial k-counter read computes a ReturnValue, every
   k-max-register write takes a log), so they are written with inline
   overflow tests instead of [mul_opt]: without flambda each [Some]
   would be a minor-heap allocation per loop iteration. *)

let pow k e =
  if k < 0 || e < 0 then invalid_arg "Zmath.pow: negative argument";
  let rec go acc k e =
    if e = 0 then acc
    else begin
      let acc =
        if e land 1 = 1 then begin
          if k <> 0 && acc > max_int / k then raise Overflow;
          acc * k
        end
        else acc
      in
      if e lsr 1 = 0 then acc
      else begin
        if k <> 0 && k > max_int / k then raise Overflow;
        go acc (k * k) (e lsr 1)
      end
    end
  in
  go 1 k e

let pow_opt k e = match pow k e with v -> Some v | exception Overflow -> None

let pow_sat k e = match pow k e with v -> v | exception Overflow -> max_int

(* The loop takes every free variable as a parameter: a nested [let rec]
   capturing [base]/[lim] would allocate a closure per call. [lim] is
   [v / base], computed once by the caller rather than divided out on
   every iteration. *)
let rec floor_log_go base lim e acc =
  (* [acc <= v / base] iff [acc * base <= v], and rules out overflow. *)
  if acc > lim then e else floor_log_go base lim (e + 1) (acc * base)

let floor_log ~base v =
  if base < 2 then invalid_arg "Zmath.floor_log: base < 2";
  if v < 1 then invalid_arg "Zmath.floor_log: v < 1";
  floor_log_go base (v / base) 0 1

let is_power_aux ~base v e =
  match pow_opt base e with Some p -> p = v | None -> false

let ceil_log ~base v =
  if v = 1 then 0
  else
    let f = floor_log ~base v in
    if is_power_aux ~base v f then f else f + 1

let ceil_log2 v = ceil_log ~base:2 v

let is_power ~base v =
  if v < 1 then false else is_power_aux ~base v (floor_log ~base v)

let ceil_sqrt v =
  if v < 0 then invalid_arg "Zmath.ceil_sqrt: negative argument";
  if v = 0 then 0
  else begin
    let s = int_of_float (Float.sqrt (float_of_int v)) in
    (* Correct the float estimate in both directions. *)
    let s = ref (max 1 s) in
    while !s * !s >= v && !s > 1 && (!s - 1) * (!s - 1) >= v do decr s done;
    while !s * !s < v do incr s done;
    !s
  end

let within_k ~k ~exact x =
  if k < 1 || exact < 0 || x < 0 then
    invalid_arg "Zmath.within_k: negative argument";
  let le_mul a b c =
    (* a <= b * c without overflow (or allocation: this is called from
       accuracy assertions inside benchmark loops) *)
    if b <> 0 && c > max_int / b then true else a <= b * c
  in
  le_mul exact x k && le_mul x exact k

let rec geometric_sum_go base hi acc l =
  if l > hi then acc
  else
    let term = pow base l in
    if acc > max_int - term then raise Overflow
    else geometric_sum_go base hi (acc + term) (l + 1)

let geometric_sum ~base ~lo ~hi =
  if lo > hi then 0 else geometric_sum_go base hi 0 lo
