(* E1 (Theorem III.9 / Lemma III.8): amortized step complexity of
   Algorithm 1 with k = ceil(sqrt n) is constant in both n and the
   execution length, while the exact baselines pay Theta(n) (collect) or
   polylog (AACH tree).

   Workload: n processes, `ops` operations per process, 30% reads, seeded
   random schedule. One table row per (n, total ops); one column per
   implementation. Entries are amortized steps per operation. *)

let make_impls ~n ~k exec =
  [ Sim_algo.Kcounter.handle
      (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ());
    Sim_algo.Collect_counter.handle
      (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ());
    Counters.Tree_counter.handle (Counters.Tree_counter.create exec ~n ());
    Counters.Faa_counter.handle (Counters.Faa_counter.create exec ()) ]

let impl_labels = [ "kcounter"; "collect"; "aach-tree"; "faa" ]

let measure ~n ~k ~ops_per_process ~impl_index ~seed =
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let counter = List.nth (make_impls ~n ~k exec) impl_index in
  let script =
    Workload.Script.counter_mix ~seed ~n ~ops_per_process ~read_fraction:0.3
  in
  let programs = Workload.Script.counter_programs counter script in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
  Sim.Exec.amortized exec

let run () =
  Tables.section
    "E1  Amortized step complexity of counters (Theorem III.9)\n\
     workload: 30% reads, random schedule, k = ceil(sqrt n)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let k = Zmath.ceil_sqrt n in
      List.iter
        (fun ops_per_process ->
          let cells =
            List.mapi
              (fun impl_index _ ->
                Tables.fmt_float
                  (measure ~n ~k ~ops_per_process ~impl_index ~seed:42))
              impl_labels
          in
          rows :=
            (string_of_int n :: string_of_int k
             :: string_of_int (n * ops_per_process)
             :: cells)
            :: !rows)
        [ 256; 1024; 4096 ])
    [ 4; 16; 64 ];
  Tables.print_table
    ~title:"amortized steps per operation (lower is better)"
    ~header:([ "n"; "k"; "total ops" ] @ impl_labels)
    (List.rev !rows);
  print_endline
    "paper: kcounter column is O(1) for k >= sqrt(n) and does not grow\n\
     with n or execution length; collect grows linearly in n (reads cost\n\
     n); the AACH tree grows polylogarithmically; faa is the non-historyless\n\
     reference at 1.0."
