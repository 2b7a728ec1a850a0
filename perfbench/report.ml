(* Human-readable tables and the one-line JSON result. *)

open Harness

(* All digits of a measured value; JSON has no NaN or infinity. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (num m.value) m.unit_)
          metrics))

let print_e2e ~workload ~seed ~window (r : e2e) =
  Printf.printf "perfbench %s seed=%d: %d ops in %.2f s (window %d), %d failed\n" workload seed
    r.attempted r.elapsed_s window r.failed;
  Option.iter (Printf.printf "  first failure: %s\n") r.first_failure;
  let p = tail_pct window in
  let line m =
    let note =
      match m.name with
      | "host_us_tail" -> Printf.sprintf "  (p%g of %d samples)" p r.attempted
      | "sim_us_tail" -> Printf.sprintf "  (p%g of %d window samples)" p window
      | "setup_s" -> Printf.sprintf "  (median of %d set-ups)" setups
      | _ -> ""
    in
    Printf.printf "  %-20s %14.4f %-7s%s\n" m.name m.value m.unit_ note
  in
  List.iter line (e2e_metrics ~window r);
  line { name = "failed_frac"; value = float_of_int r.failed /. float_of_int r.attempted; unit_ = "ratio" };
  Printf.printf "  host wall time (reported, not in the JSON result):\n";
  List.iter line (host_time_metrics ~window r);
  Printf.printf "  harness: %.1f ns, %.1f words per empty op (subtracted from alloc_words_per_op)\n"
    r.harness.ns_per_op r.harness.words_per_op;
  Printf.printf "  op mix (window): %s\n"
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.mix))

let print_traced ~workload (t : traced) =
  Printf.printf "perfbench %s traced: window %d ops\n\n" workload t.t_window;
  Printf.printf "  layer ladder (host, per op; self = rung - the rung it stacks on)\n";
  Printf.printf "  %-34s %12s %12s %12s %12s %10s\n" "rung" "host us" "words" "self us" "self words"
    "instr";
  List.iter
    (fun r ->
      Printf.printf "  %-34s %12.3f %12.1f %12.3f %12.1f %10.0f\n" r.r_label r.r_host_us r.r_words
        r.r_self_us r.r_self_words r.r_instr)
    t.t_rungs;
  Printf.printf "\n  simulated phases (hub spans, sim us per op)\n";
  List.iter (fun (name, us) -> Printf.printf "  %-34s %12.3f\n" name us) t.t_phase_table;
  Printf.printf "\n  by op kind (traced pass)\n";
  Printf.printf "  %-20s %6s %12s %10s %12s\n" "kind" "ops" "sim us/op" "exits/op" "hypercalls/op";
  List.iter
    (fun (k, n, sim, exits, hcs) -> Printf.printf "  %-20s %6d %12.3f %10.2f %12.2f\n" k n sim exits hcs)
    t.t_kinds;
  let sim_p50, p, sim_tail, sim_mean = sim_summary ~window:t.t_window t.t_sim_traced in
  Printf.printf "\n  traced sim_us_p50 %.4f, sim_us_tail (p%g) %.4f, sim_us_mean %.4f\n" sim_p50 p sim_tail
    sim_mean;
  Printf.printf "\n  per-layer metrics\n";
  List.iter (fun (name, v) -> Printf.printf "  %-40s %14.4f\n" name v) t.t_layer;
  List.iter (Printf.printf "  PROBLEM: %s\n") t.t_problems;
  print_newline ();
  print_string t.t_summary
