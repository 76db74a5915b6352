(* Backend smoke matrix: the same functor bodies (Algorithms 1 and 2 in
   lib/algo) instantiated over every backend — the effects-based
   simulator, the chaos-decorated simulator, hardware atomics, and
   chaos-decorated atomics — driven on one deterministic workload. The
   table shows the quiescent reads and their k-multiplicative envelope
   verdicts; any `no` is a regression in that instantiation. *)

let run () =
  Tables.section "BACKENDS: functor-instantiation smoke matrix";
  let rows = Backend_smoke.rows () in
  Tables.print_table
    ~title:
      (Printf.sprintf
         "Algorithms 1 & 2 across backends (n=%d, k=%d, %d increments)"
         Backend_smoke.n Backend_smoke.k Backend_smoke.incs)
    ~header:
      [ "backend"; "counter read"; "in envelope"; "maxreg read"; "in envelope";
        "fast maxreg read"; "in envelope, = read"; "pid0 steps" ]
    (List.map
       (fun r ->
         [ r.Backend_smoke.backend;
           string_of_int r.Backend_smoke.counter_read;
           (if r.Backend_smoke.counter_ok then "yes" else "NO");
           string_of_int r.Backend_smoke.maxreg_read;
           (if r.Backend_smoke.maxreg_ok then "yes" else "NO");
           string_of_int r.Backend_smoke.fast_maxreg_read;
           (if r.Backend_smoke.fast_maxreg_ok then "yes" else "NO");
           string_of_int r.Backend_smoke.steps ])
       rows);
  if not (Backend_smoke.all_ok rows) then
    failwith "backend smoke matrix: envelope violation"
