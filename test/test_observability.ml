(* Golden observability test: the fixed-seed scenario of Golden_scenario
   must render every sink — Prometheus text, Chrome trace JSON, vtrace
   tables, flight-ring dumps, --explain-slowest timelines and the stats
   records — byte for byte as committed under golden/. Any change to
   what an instrumentation site records, or to the order in which it
   first touches a metric, shows up here.

   To regenerate after an intended change:
     dune build test/test_observability.exe
     GOLDEN_UPDATE=test/golden ./_build/default/test/test_observability.exe *)

(* The probe sites the committed tables were generated with. *)
let golden_sites =
  [
    "exit"; "hypercall"; "hypercall_ret"; "ept"; "inject"; "block"; "instr";
    "pool_acquire"; "pool_release"; "pool_evict"; "sup_attempt"; "sup_backoff";
    "sup_quarantine"; "gateway"; "sched"; "steal"; "idle"; "ring_enter"; "ring_op";
  ]

let outputs = lazy (fst (Golden_scenario.run ~sites:golden_sites ()))

let names =
  [ "metrics.prom"; "trace.json"; "vtrace.txt"; "flight.txt"; "explain.txt"; "stats.txt" ]

let files (o : Golden_scenario.outputs) =
  List.combine names [ o.prometheus; o.chrome; o.vtrace; o.flight; o.explain; o.stats ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* First differing line, so a mismatch names the spot instead of
   printing two multi-kilobyte strings. *)
let first_diff expected actual =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go i e a =
    match (e, a) with
    | [], [] -> None
    | x :: e, y :: a when String.equal x y -> go (i + 1) e a
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of output>")
    | [], y :: _ -> Some (i, "<end of file>", y)
  in
  go 1 e a

let check name () =
  let actual = List.assoc name (files (Lazy.force outputs)) in
  let expected = read_file (Filename.concat "golden" name) in
  match first_diff expected actual with
  | None -> ()
  | Some (line, e, a) ->
      Alcotest.failf "%s differs at line %d:\n  expected: %s\n  actual:   %s" name line
        e a

(* One count per fact: every [*_total] counter the scenario exports
   equals its twin in the owning layer's stats record (a counter never
   touched reads 0). *)
let test_one_count_per_fact () =
  let ({ runtime; metrics; supervisor; gateway } : Golden_scenario.live) =
    (Lazy.force outputs).live
  in
  let counter key =
    match Telemetry.Metrics.find metrics key with
    | Some (Telemetry.Metrics.Counter c) -> c.Telemetry.Metrics.c_value
    | Some _ -> Alcotest.failf "%s is not a counter" key
    | None -> 0
  in
  let pair (key, stat) = Alcotest.(check int) key stat (counter key) in
  let kvm = Kvmsim.Kvm.stats (Wasp.Runtime.kvm runtime) in
  let rs = Wasp.Runtime.stats runtime and ps = Wasp.Runtime.pool_stats runtime in
  let ss = Wasp.Supervisor.stats supervisor in
  List.iter pair
    ([
       ("kvm_vm_creations_total", kvm.vm_creations);
       ("kvm_vcpu_creations_total", kvm.vcpu_creations);
       ("kvm_runs_total", kvm.runs);
       ("kvm_io_exits_total", kvm.io_exits);
       ("kvm_fault_exits_total", kvm.fault_exits);
       ("kvm_ept_violations_total", kvm.ept_violations);
       ("wasp_faults_injected_total", kvm.injected_faults);
       ("wasp_pool_misses_total", ps.created);
       ("wasp_pool_hits_total", ps.reused);
       ("wasp_pool_cleans_total", ps.cleans);
       ("wasp_pool_evictions_total", ps.evicted);
       ("wasp_pool_clean_stalls_total", ps.clean_stalls);
       ("wasp_pool_prewarmed_total", ps.prewarmed);
       ("wasp_pool_prewarm_hits_total", ps.prewarm_hits);
       ("wasp_invocations_total", rs.invocations);
       ("wasp_exited_total", rs.exited);
       ("wasp_faulted_total", rs.faulted);
       ("wasp_fuel_exhausted_total", rs.fuel_exhausted);
       ("wasp_hypercalls_total", rs.hypercalls);
       ("wasp_denied_hypercalls_total", rs.denied);
       ("wasp_snapshot_restores_total", rs.snapshot_restores);
       ("wasp_supervised_total", ss.supervised);
       ("wasp_supervised_failures_total", ss.failed);
       ("wasp_retries_total", ss.retries);
       ("wasp_quarantine_rejections_total", ss.quarantine_rejections);
       ("gateway_shed_total", Serverless.Gateway.shed_count gateway);
       ("gateway_breaker_rejections_total", Serverless.Gateway.breaker_rejections gateway);
     ]
    @ List.map
        (fun (reason, n) -> (Printf.sprintf "kvm_exits_total{reason=%s}" reason, n))
        (Kvmsim.Kvm.exit_reason_counts (Wasp.Runtime.kvm runtime)))

let () =
  match Sys.getenv_opt "GOLDEN_UPDATE" with
  | Some dir ->
      List.iter
        (fun (name, s) -> write_file (Filename.concat dir name) s)
        (files (Lazy.force outputs))
  | None ->
      Alcotest.run "observability"
        [
          ( "golden",
            List.map (fun name -> Alcotest.test_case name `Quick (check name)) names );
          ( "counters",
            [ Alcotest.test_case "one count per fact" `Quick test_one_count_per_fact ] );
        ]
