(* E1 (Theorem III.9 / Lemma III.8): amortized step complexity of
   Algorithm 1 with k = ceil(sqrt n) is constant in both n and the
   execution length, while the exact baselines pay Theta(n) (collect) or
   polylog (AACH tree).

   Workload: n processes, `ops` operations per process, 30% reads, seeded
   random schedule. One table row per (n, total ops); one column per
   implementation. Entries are amortized steps per operation. Space sits
   next to steps: the switches the kcounter touched (highest set index
   + 1) beside k·⌈log_k v⌉ for the v increments of the run. *)

(* The kcounter maker also hands back the counter, for its switches. *)
let make_impls ~n ~k ~on_kcounter =
  [ (fun exec ->
      let c = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
      on_kcounter c;
      Sim_algo.Kcounter.handle c);
    (fun exec ->
      Sim_algo.Collect_counter.handle
        (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ()));
    (fun exec ->
      Counters.Tree_counter.handle (Counters.Tree_counter.create exec ~n ()));
    (fun exec ->
      Counters.Faa_counter.handle (Counters.Faa_counter.create exec ())) ]

let impl_labels = [ "kcounter"; "collect"; "aach-tree"; "faa" ]

let measure ~n ~seed script make =
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let programs = Workload.Script.counter_programs (make exec) script in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
  Sim.Exec.amortized exec

let switches_touched c =
  List.fold_left
    (fun acc (j, set) -> if set then max acc (j + 1) else acc)
    0
    (Sim_algo.Kcounter.switch_states c)

let increments script =
  Array.fold_left
    (List.fold_left (fun acc op ->
         if op = Workload.Script.Inc then acc + 1 else acc))
    0 script

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
          let seed = 42 in
          let script =
            Workload.Script.counter_mix ~seed ~n ~ops_per_process
              ~read_fraction:0.3
          in
          let kcounter = ref None in
          let cells =
            List.map
              (fun make -> Tables.fmt_float (measure ~n ~seed script make))
              (make_impls ~n ~k ~on_kcounter:(fun c -> kcounter := Some c))
          in
          let space =
            [ string_of_int (switches_touched (Option.get !kcounter));
              string_of_int (k * Zmath.ceil_log ~base:k (increments script)) ]
          in
          rows :=
            ((string_of_int n :: string_of_int k
              :: string_of_int (n * ops_per_process)
              :: cells)
            @ space)
            :: !rows)
        [ 256; 1024; 4096 ])
    [ 4; 16; 64 ];
  Tables.print_table
    ~title:"amortized steps per operation (lower is better)"
    ~header:
      ([ "n"; "k"; "total ops" ] @ impl_labels
      @ [ "switches touched"; "k*ceil(log_k v)" ])
    (List.rev !rows);
  print_endline
    "paper: kcounter column is O(1) for k >= sqrt(n) and does not grow\n\
     with n or execution length; collect grows linearly in n (reads cost\n\
     n); the AACH tree grows polylogarithmically; faa is the non-historyless\n\
     reference at 1.0. switches touched (highest set kcounter switch + 1)\n\
     stays within k*ceil(log_k v) for the run's v increments, so every\n\
     row fits in the one 64-switch chunk the Atomic backend allocates."
