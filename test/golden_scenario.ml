(* One fixed-seed scenario that exercises every observability sink at
   once: a tracing hub, the always-on flight ring, chaos fault plans and
   one vtrace probe per site. It drives every kind of KVM exit, classic
   and ringed hypercalls, the shell pool (scheduled reclaim, pre-boot
   builds and handoffs, LRU eviction), the supervisor (retry and
   quarantine), the gateway and a multi-core load run, then renders each
   sink. test_observability compares the renderings with the committed
   files under golden/; test_vtrace reruns the scenario to check that it
   reaches every site of the catalog. *)

module R = Wasp.Runtime

(* The scenario's live layers, for checks that read their records. *)
type live = {
  runtime : R.t;
  metrics : Telemetry.Metrics.t;
  supervisor : Wasp.Supervisor.t;
  gateway : Serverless.Gateway.t;
}

type outputs = {
  prometheus : string;  (** exposition text of the hub's registry *)
  chrome : string;  (** Chrome trace-event JSON of the hub's spans *)
  vtrace : string;  (** every probe table *)
  flight : string;  (** the black-box dumps taken along the way + the final ring *)
  explain : string;  (** causal timelines of the slowest traces *)
  stats : string;  (** the layers' stats records and the hub summary *)
  live : live;
}

(* A probe per site; the aggregations vary so that every context field
   is read by some table. *)
let probe_for = function
  | "exit" -> "exit { count() by (fn, reason, nr) }"
  | "hypercall" -> "hypercall { count() by (reason, core) }"
  | "hypercall_ret" -> "hypercall_ret { sum(cycles) by (reason) }"
  | "ept" -> "ept { sum(cycles) by (fn, reason) }"
  | "inject" -> "inject { count() by (reason, pc) }"
  | "block" -> "block { count() by (fn) }"
  | "instr" -> "instr { sum(cycles) by (reason) }"
  | "pool_acquire" -> "pool_acquire { count() by (reason, nr) }"
  | "pool_release" -> "pool_release { sum(cycles) by (reason, core) }"
  | "pool_evict" -> "pool_evict { count() by (reason, nr) }"
  | "sup_attempt" -> "sup_attempt { count() by (fn, reason, nr) }"
  | "sup_backoff" -> "sup_backoff { sum(cycles) by (fn, nr) }"
  | "sup_quarantine" -> "sup_quarantine { count() by (fn, reason, nr) }"
  | "gateway" -> "gateway { sum(cycles) by (fn, reason) }"
  | "sched" -> "sched { count() by (core, reason) }"
  | "steal" -> "steal { count() by (core, nr) }"
  | "idle" -> "idle { sum(cycles) by (core) }"
  | "ring_enter" -> "ring_enter { count() by (fn, reason, nr) }"
  | "ring_op" -> "ring_op { sum(cycles) by (reason) }"
  | site -> Printf.sprintf "%s { count() by (fn, reason, nr, fuel) }" site

let engine spec =
  match Vtrace.Engine.of_string spec with
  | Ok e -> e
  | Error m -> failwith ("golden scenario: bad probe spec: " ^ m)

let plan text =
  match Cycles.Fault_plan.of_string text with
  | Ok p -> p
  | Error m -> failwith ("golden scenario: bad fault plan: " ^ m)

let fib_src =
  {|
start:
  mov r1, 10
  call fib
  mov r1, r0
  mov r0, 0
  out 1, r0
  hlt
fib:
  cmp r1, 2
  jlt base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
base:
  mov r0, r1
  ret
|}

(* plain port I/O, an out-of-range hypercall number, a clock hypercall
   (denied unless the policy grants it), then exit(3) *)
let io_src =
  {|
start:
  mov r1, 7
  out 0x80, r1
  in r2, 0x81
  mov r0, 99
  out 1, r0
  mov r0, 12
  out 1, r0
  mov r1, 3
  mov r0, 0
  out 1, r0
  hlt
|}

let crash_src = {|
start:
  mov r1, 0x7ffffff0
  ld64 r0, [r1]
  hlt
|}

let spin_src = {|
start:
  add r1, 1
  jmp start
|}

(* snapshot after a warm-up loop, then read the argument and exit *)
let snap_src =
  {|
  mov r10, 0
init:
  add r10, 1
  cmp r10, 200
  jlt init
  mov r0, 6
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r10
  mov r0, 0
  out 1, r0
|}

let shout =
  "function shout(d) { var s = \"\"; for (var i = 0; i < d.length; i++) { s += \
   String.fromCharCode(d[i]); } return s.toUpperCase(); }"

let post path body =
  Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body "POST" path)

let run ~sites () =
  let image name src = Wasp.Image.of_asm_string ~name src in
  let fib = image "fib" fib_src
  and io = image "io" io_src
  and crash = image "crash" crash_src
  and spin = image "spin" spin_src
  and snap = image "snap" snap_src in
  let w =
    R.create ~seed:0x601D ~cores:2 ~clean:`Async ~reset:`Cow ~pool_capacity:1
      ~flight_capacity:48 ()
  in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  Telemetry.Hub.enable_tracing hub ~seed:0x601D;
  R.set_telemetry w (Some hub);
  let main =
    engine (String.concat "; " (List.map probe_for (List.filter (( <> ) "instr") sites)))
  in
  let instr = engine (probe_for "instr") in
  let metrics = Telemetry.Hub.metrics hub in
  Vtrace.Engine.set_metrics main (Some metrics);
  R.set_probes w (Some main);
  let dumps = Buffer.create 1024 in
  let keep_dump () =
    (match R.flight_dump w with Some d -> Buffer.add_string dumps d | None -> ());
    R.clear_flight_dump w
  in
  (* 1. multi-core load under scheduled reclaim *)
  let _buckets, _sched =
    Serverless.Loadgen.run_cores ~think_time_s:0.00004 ~runtime:w
      ~request:(fun () -> ignore (R.run w fib ()))
      ~profile:
        [
          { Serverless.Loadgen.duration_s = 0.0002; clients = 3 };
          { Serverless.Loadgen.duration_s = 0.0002; clients = 1 };
        ]
      ()
  in
  (* pre-boot: a handoff that refills at once (eager) on core 0, one
     that waits for idle cycles (scheduled) on core 1 *)
  let big = Wasp.Image.of_asm_string ~name:"big" ~mem_size:0x40000 fib_src in
  R.set_prewarm w
    (Some
       {
         Wasp.Pool.pw_mem_size = big.Wasp.Image.mem_size;
         pw_mode = big.Wasp.Image.mode;
         pw_target = 1;
       });
  List.iter
    (fun core ->
      let spent = R.prewarm_step w ~core ~budget:400_000 in
      Cycles.Clock.advance_int (R.core_clock w core) spent)
    [ 0; 1 ];
  R.set_reclaim_policy w Wasp.Pool.Eager;
  R.on_core w 0;
  ignore (R.run w big ());
  R.set_reclaim_policy w Wasp.Pool.Scheduled;
  R.on_core w 1;
  ignore (R.run w big ());
  R.set_prewarm w None;
  R.set_reclaim_policy w Wasp.Pool.Eager;
  R.on_core w 0;
  (* 2. every exit reason, classic hypercalls, CoW breaks, injections *)
  R.set_fault_plan w
    (Some (plan "seed=0xC4405;spurious_exit=@0+2;ept_storm=@1+3;snapshot_corrupt=@2"));
  let clock_policy = Wasp.Policy.of_list [ Wasp.Hc.clock ] in
  let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ] in
  ignore (R.run w fib ());
  ignore (R.run w io ~policy:clock_policy ());
  ignore (R.run w io ());
  keep_dump ();
  ignore (R.run w crash ());
  keep_dump ();
  ignore (R.run w spin ~fuel:3000 ());
  List.iter
    (fun arg ->
      ignore (R.run w snap ~policy:snap_policy ~snapshot_key:"snap" ~args:[ arg ] ()))
    [ 1L; 2L; 3L; 4L ];
  keep_dump ();
  (* 3. the file server, ringed and classic, hit and miss *)
  R.set_fault_plan w (Some (plan "seed=0xC4405;ring_corrupt=@2"));
  let path = Vhttp.Fileserver.add_default_files (R.env w) in
  let ringed = Vhttp.Fileserver.compile_ring ~snapshot:false in
  let classic = Vhttp.Fileserver.compile ~snapshot:true in
  List.iter
    (fun (compiled, path) ->
      (* the injected ring corruption faults the guest: no response *)
      (try ignore (Vhttp.Fileserver.serve_virtine w compiled ~path)
       with Failure _ -> ());
      keep_dump ())
    [
      (ringed, path); (ringed, "/missing.html"); (ringed, path); (classic, path);
      (classic, path); (classic, "/missing.html");
    ];
  (* 4. supervision: an injected provisioning failure is retried; a
     crashing image exhausts its retries, is quarantined, is rejected *)
  R.set_fault_plan w (Some (plan "seed=0xC4405;provision_fail=@0;guest_hang=@3"));
  let sup =
    Wasp.Supervisor.create
      ~config:
        {
          Wasp.Supervisor.default_config with
          Wasp.Supervisor.max_retries = 2;
          quarantine_threshold = 2;
          attempt_fuel = Some 100_000;
        }
      w
  in
  List.iter
    (fun img -> ignore (Wasp.Supervisor.run sup img ()))
    [ fib; crash; fib; crash; crash ];
  keep_dump ();
  R.set_fault_plan w None;
  (* 5. the gateway: ok, function error, unknown function *)
  let gateway = Serverless.Gateway.create (Serverless.Vespid.create w) in
  List.iter
    (fun req -> ignore (Serverless.Gateway.handle gateway req))
    [
      post "/register/ok?entry=shout" shout;
      post "/register/bad?entry=boom" "function boom(d) { return nonexistent(); }";
      post "/invoke/ok" "hi";
      post "/invoke/bad" "x";
      post "/invoke/ghost" "x";
      "NOT HTTP";
    ];
  (* 6. instruction probes force interpretation: attach them alone *)
  R.set_probes w (Some instr);
  ignore (R.run w fib ());
  R.set_probes w (Some main);
  Vtrace.Engine.export main metrics;
  Vtrace.Engine.export instr metrics;
  let flight = R.flight w in
  let kvm = Kvmsim.Kvm.stats (R.kvm w) in
  let rs = R.stats w and ps = R.pool_stats w in
  let ss = Wasp.Supervisor.stats sup in
  let stats =
    String.concat "\n"
      [
        Printf.sprintf
          "kvm: vm_creations=%d vcpu_creations=%d runs=%d io_exits=%d fault_exits=%d \
           ept_violations=%d injected_faults=%d"
          kvm.Kvmsim.Kvm.vm_creations kvm.vcpu_creations kvm.runs kvm.io_exits
          kvm.fault_exits kvm.ept_violations kvm.injected_faults;
        "exit reasons: "
        ^ String.concat " "
            (List.map
               (fun (r, n) -> Printf.sprintf "%s=%d" r n)
               (Kvmsim.Kvm.exit_reason_counts (R.kvm w)));
        Printf.sprintf
          "runtime: invocations=%d exited=%d faulted=%d fuel_exhausted=%d hypercalls=%d \
           denied=%d snapshot_restores=%d"
          rs.R.invocations rs.exited rs.faulted rs.fuel_exhausted rs.hypercalls rs.denied
          rs.snapshot_restores;
        Printf.sprintf
          "pool: created=%d reused=%d cleans=%d background_cycles=%Ld evicted=%d \
           clean_stalls=%d stall_cycles=%Ld prewarmed=%d prewarm_hits=%d"
          ps.Wasp.Pool.created ps.reused ps.cleans ps.background_cycles ps.evicted
          ps.clean_stalls ps.stall_cycles ps.prewarmed ps.prewarm_hits;
        Printf.sprintf
          "supervisor: supervised=%d succeeded=%d failed=%d retries=%d backoff_cycles=%Ld \
           quarantine_rejections=%d"
          ss.Wasp.Supervisor.supervised ss.succeeded ss.failed ss.retries
          ss.backoff_cycles ss.quarantine_rejections;
        Printf.sprintf "probes: fires=%d drops=%d" (Vtrace.Engine.fires main)
          (Vtrace.Engine.drops main);
        "";
        Telemetry.Summary.render hub;
      ]
  in
  ( {
      prometheus = Telemetry.Prometheus.to_text metrics;
      chrome = Telemetry.Chrome.to_json hub;
      vtrace = Vtrace.Engine.render main ^ Vtrace.Engine.render instr;
      flight =
        Buffer.contents dumps
        ^ (match flight with
          | Some fr -> Profiler.Flight.dump fr ~reason:"end of scenario"
          | None -> "no flight ring\n");
      explain = Profiler.Explain.slowest ~n:3 ~hub ?flight ();
      stats;
      live = { runtime = w; metrics; supervisor = sup; gateway };
    },
    [ main; instr ] )
