type result = {
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_sec : float;
}

let run ~domains ~ops_per_domain ~worker =
  if domains < 1 then invalid_arg "Throughput.run: domains < 1";
  let start = Atomic.make false in
  let spawn pid =
    Domain.spawn (fun () ->
        while not (Atomic.get start) do
          Domain.cpu_relax ()
        done;
        for op_index = 0 to ops_per_domain - 1 do
          worker ~pid ~op_index
        done)
  in
  let workers = Array.init domains spawn in
  let t0 = Unix.gettimeofday () in
  Atomic.set start true;
  Array.iter Domain.join workers;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let total_ops = domains * ops_per_domain in
  { domains;
    total_ops;
    elapsed_s;
    ops_per_sec =
      (if elapsed_s > 0.0 then float_of_int total_ops /. elapsed_s
       else Float.infinity) }

(* ------------------------------------------------------------------ *)
(* Repeated trials                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  s_domains : int;
  s_trials : int;
  s_ops_per_trial : int;
  s_min_ops_per_sec : float;
  s_median_ops_per_sec : float;
  s_max_ops_per_sec : float;
}

let median sorted =
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let measure ?(warmup_trials = 1) ?(trials = 3) ~domains ~ops_per_domain ~worker
    () =
  if trials < 1 then invalid_arg "Throughput.measure: trials < 1";
  if warmup_trials < 0 then invalid_arg "Throughput.measure: warmup < 0";
  for _ = 1 to warmup_trials do
    ignore (run ~domains ~ops_per_domain ~worker)
  done;
  let samples =
    Array.init trials (fun _ ->
        (run ~domains ~ops_per_domain ~worker).ops_per_sec)
  in
  Array.sort compare samples;
  { s_domains = domains;
    s_trials = trials;
    s_ops_per_trial = domains * ops_per_domain;
    s_min_ops_per_sec = samples.(0);
    s_median_ops_per_sec = median samples;
    s_max_ops_per_sec = samples.(trials - 1) }

(* ------------------------------------------------------------------ *)
(* Operation mixes                                                     *)
(* ------------------------------------------------------------------ *)

type mix = { mix_label : string; read_permille : int }

let read_heavy = { mix_label = "read-heavy"; read_permille = 950 }

(* 389 is coprime with 1000, so reads are spread evenly through each
   window of 1000 operations instead of clustering at its start. *)
let mixed_worker mix ~inc ~read ~pid ~op_index =
  if op_index * 389 mod 1000 < mix.read_permille then read ~pid
  else inc ~pid

(* ------------------------------------------------------------------ *)
(* Domain sweep                                                        *)
(* ------------------------------------------------------------------ *)

let sweep_domains ?(max_domains = 8) () =
  if max_domains < 1 then invalid_arg "Throughput.sweep_domains";
  let recommended = Domain.recommended_domain_count () in
  let rec doublings d acc =
    if d > max_domains || d > recommended then List.rev acc
    else doublings (2 * d) (d :: acc)
  in
  (* Always include 1 and 2 so the sweep is meaningful even on a
     single-core container (domains then time-slice; the relative
     ordering of implementations is still informative). *)
  let base = [ 1; 2 ] in
  let extra = List.filter (fun d -> d > 2) (doublings 4 []) in
  List.filter (fun d -> d <= max_domains) base @ extra
