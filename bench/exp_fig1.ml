(* F1 (Figure 1): switch states during a CounterRead, reproducing the three
   cases of the proof of Claim III.6 with k = 4.

   Figure 1 shows the (q+1)-th interval of consecutive switches
   [qk+1 .. (q+1)k] at the moment a read returns ReturnValue(p, q):

     a)   p = 0: the read saw switch_{qk} = 1 and switch_{qk+1} = 0 — the
          interval is untouched as far as the reader knows.
     b.1) p = 1: switch_{qk+1} = 1 and switch_{(q+1)k} = 0, with the
          interior switches still 0.
     b.2) p = 1: same reader observations, but the interior switches were
          concurrently set — the reader cannot distinguish b.1 from b.2,
          which is exactly why u_max includes the p(k-1)k^(q+1) term.

   We drive a writer process to the required switch frontier, run the
   reader, and dump the actual shared state next to the reader's return
   value. *)

let k = 4

(* Drive `incs` increments by the writer (pid 0) solo, then a read by pid 1
   solo; return (switch dump, read result). *)
let scenario ~incs =
  let n = 2 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let result = ref 0 in
  let programs =
    [| (fun pid ->
         for _ = 1 to incs do
           Sim.Api.op_unit ~name:"inc" (fun () ->
               Sim_algo.Kcounter.increment counter ~pid)
         done);
       (fun pid ->
         result :=
           Sim.Api.op_int ~name:"read" (fun () ->
               Sim_algo.Kcounter.read counter ~pid)) |]
  in
  ignore
    (Sim.Exec.run exec ~programs
       ~policy:(Sim.Schedule.Seq [ Sim.Schedule.Solo 0; Sim.Schedule.Solo 1 ])
       ());
  (Sim_algo.Kcounter.switch_states counter, !result)

let render states =
  let max_index =
    List.fold_left (fun acc (i, _) -> max acc i) 0 states
  in
  let bit i =
    match List.assoc_opt i states with
    | Some b -> if b then "1" else "0"
    | None -> "0"
  in
  let buf = Buffer.create 64 in
  for i = 0 to max_index + 2 do
    if i > 0 && (i - 1) mod k = 0 then Buffer.add_string buf "| ";
    Buffer.add_string buf (bit i);
    Buffer.add_char buf ' '
  done;
  Buffer.add_string buf "...   (intervals of k switches delimited by |)";
  Buffer.contents buf

let case ~label ~incs =
  let states, result = scenario ~incs in
  Printf.printf "%s  after %d increments by one process:\n" label incs;
  Printf.printf "   switches: %s\n" (render states);
  Printf.printf "   read returns %d\n\n" result

let run () =
  Tables.section
    "F1  Figure 1: switch-interval states seen by a CounterRead (k = 4)";
  print_newline ();
  (* Case a: the writer exhausts interval q (sets its last switch) but has
     not touched interval q+1: reader stops with p = 0.
     With k=4: switch_0 at inc 1; interval [1..4] switches at incs
     5, 9, 13, 17; interval [5..8] needs 16 incs each. After 17 increments
     exactly, switches 0..4 are set and switch_5 is 0. *)
  case ~label:"a)  p=0:" ~incs:17;
  (* Case b.1: the writer sets the first switch of interval 2 ([5..8]) and
     stops: 17 + 16 = 33 increments. Reader sees switch_5 = 1 and
     switch_8 = 0 with the interior untouched. *)
  case ~label:"b.1) p=1:" ~incs:33;
  (* Case b.2: interior switches of the interval also set (two more
     announcements, 16 incs each): 33 + 32 = 65 increments. The reader
     still only checks the first and last switch of the interval, so it
     returns the same value as b.1 even though more increments landed. *)
  case ~label:"b.2) p=1:" ~incs:65;
  print_endline
    "paper: in b.2 the reader returns the same value as in b.1 because it\n\
     only inspects the first and last switch of each interval -- the\n\
     u_max slack of Claim III.6."
