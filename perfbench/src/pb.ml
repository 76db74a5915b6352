(* Benchmark entry point: runs one workload and prints one JSON line
   with its measurements, correctness counts and (traced run) layer
   numbers. perfbench/run.py builds this, derives the STATS-based
   layer metrics and prints the final result; see perfbench/NOTES.md. *)

open Util

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let exe = ref "" and run_dir = ref "" and cpu = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " objects-inproc | svc-rpc | svc-durable");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Int (fun t -> trace := t = 1), " 1: traced run (layer metrics)");
      ("--exe", Arg.Set_string exe, " approx_cli executable");
      ("--run-dir", Arg.Set_string run_dir, " scratch directory (relative)");
      ("--server-cpu", Arg.Set_string cpu, " pin the server to this CPU list") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb --workload W --seed N --seconds S --trace 0|1 --exe PATH --run-dir DIR";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p !run_dir;
  let r = new_result () in
  let cpu = if !cpu = "" then None else Some !cpu in
  let svc wl = Svc.run wl ~exe:!exe ~cpu ~seed:!seed ~seconds:!seconds ~trace:!trace ~run_dir:!run_dir r in
  (try
     match !workload with
     | "objects-inproc" -> Inproc.run ~seed:!seed ~seconds:!seconds ~trace:!trace ~run_dir:!run_dir r
     | "svc-rpc" -> svc Svc.rpc
     | "svc-durable" -> svc Svc.durable
     | w ->
       Printf.eprintf "unknown workload %S\n" w;
       exit 2
   with e ->
     Svc.kill_all ();
     Printf.eprintf "pb: %s\n%!" (Printexc.to_string e);
     exit 1);
  Svc.kill_all ();
  let num l = Obj (List.map (fun (k, v) -> (k, Num v)) l) in
  print_endline
    (json_to_string
       (Obj
          ([ ("workload", Str !workload);
             ("attempted", Int r.attempted);
             ("failed", Int r.failed);
             ("violations", Int r.violations);
             ("notes", Arr (List.rev_map (fun s -> Str s) r.notes));
             ("e2e", num r.e2e);
             ("layers", num r.layers) ]
          @ r.extra)))
