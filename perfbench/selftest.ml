(* The benchmark's own checks: simulated figures are a pure function of the
   seed, tracing never moves them, the engine choice never moves them, the
   seed really drives the op mix, and BENCHMARK.json names exactly the
   metrics this program prints. Small windows keep this fast. *)

open Perfbench

let window = 12
let seed = 7

let for_each_workload name f =
  List.map
    (fun (module W : Harness.WORKLOAD) ->
      Alcotest.test_case (Printf.sprintf "%s %s" name W.name) `Quick (fun () -> f (module W : Harness.WORKLOAD)))
    Workloads.all

let sims_identical (module W : Harness.WORKLOAD) =
  let a = Harness.run_e2e ~window (module W) ~seed ~seconds:0.0 in
  let b = Harness.run_e2e ~window (module W) ~seed ~seconds:0.0 in
  Alcotest.(check int) "no failed ops" 0 (a.Harness.failed + b.Harness.failed);
  Alcotest.(check (array int64)) "same seed, same sim cycles" a.Harness.sim b.Harness.sim;
  Alcotest.(check bool) "sim cycles are charged" true (Array.exists (fun c -> c > 0L) a.Harness.sim)

let traced_matches (module W : Harness.WORKLOAD) =
  let e = Harness.run_e2e ~window (module W) ~seed ~seconds:0.0 in
  let t = Harness.run_traced ~window (module W) ~seed in
  Alcotest.(check (list string)) "no problems" [] t.Harness.t_problems;
  Alcotest.(check (array int64)) "traced = untraced pass" t.Harness.t_sim_untraced t.Harness.t_sim_traced;
  Alcotest.(check (array int64)) "traced = end-to-end run" e.Harness.sim t.Harness.t_sim_traced;
  Alcotest.(check (list string))
    "every per-layer metric reported"
    (List.map fst Harness.per_layer_catalog)
    (List.map fst t.Harness.t_layer)

let translator_rungs_agree () =
  let (module W : Harness.WORKLOAD) = Option.get (Workloads.find "cold") in
  let t = Harness.run_traced ~window (module W) ~seed in
  let rung label =
    match List.find_opt (fun r -> r.Harness.r_label = label) t.Harness.t_rungs with
    | Some r -> r.Harness.r_cycles
    | None -> Alcotest.failf "no rung %s" label
  in
  let off = rung "Runtime.run ~translate:false" and on = rung "Runtime.run ~translate:true" in
  Alcotest.(check (array int64)) "identical cycles" off on;
  Alcotest.(check bool) "cycles charged" true (Array.for_all (fun c -> c > 0L) on)

let seed_changes_mix (module W : Harness.WORKLOAD) =
  let mix s = Harness.count_kinds (Array.to_list (Array.map W.kind (Harness.ops_of (module W) ~seed:s 200))) in
  Alcotest.(check bool) "same seed, same mix" true (mix 1 = mix 1);
  Alcotest.(check bool) "other seed, other mix" true (mix 1 <> mix 2)

(* A JSON string literal ["name": "X"] for every metric the program
   prints, and none it does not. *)
let benchmark_json_names () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let named = Str.regexp "\"name\": *\"\\([^\"]+\\)\"" in
  let rec names pos acc =
    match Str.search_forward named text pos with
    | p -> names (p + 1) (Str.matched_group 1 text :: acc)
    | exception Not_found -> List.rev acc
  in
  let in_json = List.sort compare (names 0 []) in
  let e2e =
    Harness.e2e_metrics ~window:1
      (Harness.run_e2e ~window:1 (Option.get (Workloads.find "http")) ~seed ~seconds:0.0)
  in
  let printed =
    List.map (fun (module W : Harness.WORKLOAD) -> W.name) Workloads.all
    @ List.map (fun m -> m.Harness.name) e2e
    @ List.map fst Harness.per_layer_catalog
  in
  Alcotest.(check (list string)) "BENCHMARK.json names" (List.sort compare printed) in_json

let () =
  Alcotest.run "perfbench"
    [
      ("determinism", for_each_workload "same-seed sims" sims_identical);
      ("tracing", for_each_workload "traced sims" traced_matches);
      ("engines", [ Alcotest.test_case "cold translator on/off cycles" `Quick translator_rungs_agree ]);
      ("seeding", for_each_workload "seed drives mix" seed_changes_mix);
      ("catalog", [ Alcotest.test_case "BENCHMARK.json metric names" `Quick benchmark_json_names ]);
    ]
