type system = {
  clocks : Cycles.Clock.t array;  (* one virtual clock per simulated core *)
  mutable cur : int;              (* core charged by subsequent operations *)
  rng : Cycles.Rng.t;
  stats : stats;
  mutable telemetry : Telemetry.Hub.t option;
  mutable flight : Profiler.Flight.t option;
  mutable active_cpu : Vm.Cpu.t option;
      (* vCPU inside KVM_RUN right now: EPT violations taken from guest
         stores are stamped with its PC in the flight ring *)
  mutable plan : Cycles.Fault_plan.t option;
  translate : bool;
      (* execute guests through the superblock translation cache; off =
         pure interpreter. Cycle-identical either way. *)
  translation : Vm.Translate.stats;
      (* shared by every vCPU's cache, so the counters survive shell
         recycling and pool eviction *)
  mutable probes : Vtrace.Engine.t option;
  mutable observed : bool;
      (* any of telemetry / flight / probes attached: the one branch an
         event pays beyond its always-on stats fold *)
  mutable hc_port : int option;
      (* the hypercall port, when a runtime above us declared one:
         Io_out exits on it are "hypercall" exits *)
  mutable block_probe : (pc:int -> unit) option;
      (* prebuilt superblock-entry observer, installed on each vCPU's
         translation cache while running; None unless a block probe is
         attached *)
  exits : int array;
      (* always-on exit tally indexed by [exit_index] (the
         kvm_exits_total{reason} series without needing a telemetry
         hub) — the fuzzer's exit-edge coverage signal reads it after
         every candidate *)
}

and stats = {
  mutable vm_creations : int;
  mutable vcpu_creations : int;
  mutable runs : int;
  mutable io_exits : int;
  mutable fault_exits : int;
  mutable ept_violations : int;
  mutable injected_faults : int;
}

exception Injected_failure of string

let site_spurious_exit = "spurious_exit"
let site_ept_storm = "ept_storm"
let site_provision_fail = "provision_fail"
let site_guest_hang = "guest_hang"
let site_snapshot_corrupt = "snapshot_corrupt"
let site_ring_corrupt = "ring_corrupt"

type vm = { sys : system; mutable memory : Vm.Memory.t option }

type vcpu = { parent : vm; cpu : Vm.Cpu.t; trans : Vm.Translate.t }

let open_dev ?(seed = 0x5eed) ?freq_ghz ?(cores = 1) ?(translate = true) () =
  if cores < 1 then invalid_arg "Kvm.open_dev: cores must be >= 1";
  {
    clocks = Array.init cores (fun _ -> Cycles.Clock.create ?freq_ghz ());
    cur = 0;
    rng = Cycles.Rng.create ~seed;
    stats =
      {
        vm_creations = 0;
        vcpu_creations = 0;
        runs = 0;
        io_exits = 0;
        fault_exits = 0;
        ept_violations = 0;
        injected_faults = 0;
      };
    telemetry = None;
    flight = None;
    active_cpu = None;
    plan = None;
    translate;
    translation = Vm.Translate.new_stats ();
    probes = None;
    observed = false;
    hc_port = None;
    block_probe = None;
    exits = Array.make (List.length (Vtrace.Ctx.reasons Exit)) 0;
  }

let clock sys = sys.clocks.(sys.cur)
let cores sys = Array.length sys.clocks
let current_core sys = sys.cur

let core_clock sys core =
  if core < 0 || core >= Array.length sys.clocks then invalid_arg "Kvm.core_clock: no such core";
  sys.clocks.(core)

let set_core sys core =
  if core < 0 || core >= Array.length sys.clocks then invalid_arg "Kvm.set_core: no such core";
  sys.cur <- core;
  match sys.telemetry with
  | Some h ->
      Telemetry.Hub.set_clock h sys.clocks.(core);
      Telemetry.Hub.set_core h core
  | None -> ()

let rng sys = sys.rng
let stats sys = sys.stats

let telemetry sys = sys.telemetry
let flight sys = sys.flight
let probes sys = sys.probes

let set_fault_plan sys plan = sys.plan <- plan
let fault_plan sys = sys.plan

(* Trace id of the request currently on-CPU, so events are attributable
   to it. None when tracing is off or no span is open. *)
let active_trace sys = Option.bind sys.telemetry Telemetry.Hub.current_trace

let set_hc_port sys port = sys.hc_port <- port

(* ------------------------------------------------------------------ *)
(* The event stream                                                    *)
(* ------------------------------------------------------------------ *)

(* A bump of the named counter on the attached hub, if any. Counters
   register on first touch and expose in that order, so the order of
   the touches is part of the output (test_observability pins it). *)
let count sys ?help ?labels ?by name =
  match sys.telemetry with
  | None -> ()
  | Some h ->
      Telemetry.Metrics.incr ?by (Telemetry.Metrics.counter (Telemetry.Hub.metrics h) ?help ?labels name)

let tally sys ?help ?(by = 1) name v =
  if sys.telemetry <> None then count sys ?help ~by name;
  v + by

let instant sys ?args name =
  match sys.telemetry with None -> () | Some h -> Telemetry.Hub.instant h ?args name

let exit_index : Vtrace.Ctx.reason -> int = function
  | Hlt -> 0 | Hypercall -> 1 | Io_out -> 2 | Io_in -> 3 | Fault -> 4 | Fuel -> 5
  | r -> invalid_arg ("Kvm.exit_index: not an exit reason: " ^ Vtrace.Ctx.reason_name r)

(* KVM's own facts, each folded into its stats field and its counter in
   one arm. The layers above fold their events the same way before
   handing them to [emit]. *)
let fold_telemetry sys (ev : Vtrace.Ctx.t) =
  let st = sys.stats in
  match ev.site with
  | Exit ->
      let i = exit_index ev.reason in
      sys.exits.(i) <- sys.exits.(i) + 1;
      (match ev.reason with
      | Hypercall | Io_out | Io_in -> st.io_exits <- tally sys "kvm_io_exits_total" st.io_exits
      | Fault -> st.fault_exits <- tally sys "kvm_fault_exits_total" st.fault_exits
      | _ -> ());
      (* one series per cause, so exit savings show up as a shrinking
         [hypercall] series rather than a mystery delta in the total *)
      if sys.telemetry <> None then
        count sys ~help:"KVM_RUN exits by cause"
          ~labels:[ ("reason", Vtrace.Ctx.reason_name ev.reason) ]
          "kvm_exits_total"
  | Ept -> st.ept_violations <- tally sys "kvm_ept_violations_total" st.ept_violations
  | Inject ->
      let help = "fault-plan injections fired" in
      st.injected_faults <- tally sys ~help "wasp_faults_injected_total" st.injected_faults;
      count sys ~help ~labels:[ ("site", Vtrace.Ctx.reason_name ev.reason) ]
        "wasp_faults_injected_total"
  | _ -> ()

let emit sys (ev : Vtrace.Ctx.t) =
  fold_telemetry sys ev;
  if sys.observed then begin
    (match (sys.flight, ev.site) with
    | Some fr, (Exit | Ept | Inject) ->
        Profiler.Flight.record fr ~at:(Cycles.Clock.now (clock sys)) ev
    | _ -> ());
    match sys.probes with
    | None -> ()
    | Some e ->
        (* a matched exit probe stamps the exit's black-box entry *)
        if Vtrace.Engine.fire e ev > 0 && ev.site = Exit then
          Option.iter (fun fr -> Profiler.Flight.append_note fr "vtrace") sys.flight
  end

let active_pc sys = match sys.active_cpu with Some cpu -> Vm.Cpu.pc cpu | None -> 0

let event sys ?(core = sys.cur) ?(fn = "") ?pc ~cycles ~nr site reason =
  {
    Vtrace.Ctx.empty with
    site;
    core;
    trace = active_trace sys;
    fn;
    pc = (match pc with Some pc -> pc | None -> active_pc sys);
    reason;
    cycles;
    nr = Int64.of_int nr;
  }

(* Sites whose only sink is the probe engine (no stats, no counters, no
   flight entry): [listens] lets such a site skip building an event no
   attached probe would read. *)
let listens sys (site : Vtrace.Ctx.site) =
  match site with
  | Hypercall | Hypercall_ret | Block | Instr | Sup_attempt | Sched | Steal | Idle
  | Ring_enter | Ring_op -> (
      match sys.probes with Some e -> Vtrace.Engine.wants e site | None -> false)
  | _ -> true

let probe_event sys ?core ~cycles ~nr site reason =
  if listens sys site then emit sys (event sys ?core ~cycles ~nr site reason)

let observe sys =
  sys.observed <- sys.telemetry <> None || sys.flight <> None || sys.probes <> None

let set_telemetry sys hub = sys.telemetry <- hub; observe sys
let set_flight sys fr = sys.flight <- fr; observe sys

let set_probes sys e =
  sys.probes <- e;
  observe sys;
  sys.block_probe <-
    (match e with
    | Some eng when Vtrace.Engine.wants eng Vtrace.Ctx.Block ->
        Some (fun ~pc -> emit sys (event sys ~pc ~cycles:0L ~nr:0 Block (Named "")))
    | _ -> None)

(* One injection fired: an [inject] event (stats, the plain and
   site-labeled [wasp_faults_injected_total], an [INJECTED] black-box
   entry stamped with the active guest PC). Bookkeeping charges no
   cycles — the *consequence* of the injection (the spurious round trip,
   the storm, the raised failure) is what the site charges. *)
let plan_fires sys site =
  match sys.plan with
  | None -> false
  | Some plan ->
      let fire = Cycles.Fault_plan.fires plan ~site in
      if fire then emit sys (event sys ~cycles:0L ~nr:0 Inject (Named site));
      fire

let kspan sys name f =
  match sys.telemetry with None -> f () | Some h -> Telemetry.Hub.with_span h name f

let exit_reason_counts sys =
  List.filter_map
    (fun r ->
      match sys.exits.(exit_index r) with
      | 0 -> None
      | n -> Some (Vtrace.Ctx.reason_name r, n))
    (Vtrace.Ctx.reasons Exit)
  |> List.sort compare

let charge sys cycles = Cycles.Clock.advance_int (clock sys) (Cycles.Costs.jitter sys.rng ~pct:0.05 cycles)

let create_vm sys =
  kspan sys "kvm_create_vm" (fun () ->
      (* fault plan: KVM_CREATE_VM can fail (the kernel's VMCS/VMCB
         allocation returning ENOMEM). The failed ioctl still pays its
         syscall round trip; the in-kernel allocation is never reached. *)
      if plan_fires sys site_provision_fail then begin
        Cycles.Clock.advance_int (clock sys) Cycles.Costs.ioctl_syscall;
        raise (Injected_failure site_provision_fail)
      end;
      charge sys Cycles.Costs.kvm_create_vm;
      sys.stats.vm_creations <- tally sys "kvm_vm_creations_total" sys.stats.vm_creations;
      { sys; memory = None })

(* A CoW break of a shared guest page: the simulated EPT write-protection
   violation. Charged deterministically (no jitter — the replay contract
   requires byte-identical stamps) and in-line, so it lands inside
   whatever phase span the triggering store runs under. Demand-zero fills
   ([shared = false]) charge nothing: cold-path timings are unchanged by
   the paged representation. *)
let on_page_fault sys ~shared ~page =
  if shared then begin
    let cost =
      Cycles.Costs.ept_violation + Cycles.Costs.memcpy_cost Vm.Memory.page_size
    in
    Cycles.Clock.advance_int (clock sys) cost;
    emit sys (event sys ~cycles:(Int64.of_int cost) ~nr:page Ept Cow_break)
  end

let set_user_memory_region vm ~size =
  (* the EPT/memslot build transition *)
  kspan vm.sys "kvm_memory_region" (fun () ->
      charge vm.sys Cycles.Costs.kvm_memory_region;
      let mem = Vm.Memory.create ~size in
      Vm.Memory.set_fault_hook mem
        (Some (fun ~shared ~page -> on_page_fault vm.sys ~shared ~page));
      vm.memory <- Some mem;
      mem)

let vm_memory vm =
  match vm.memory with
  | Some m -> m
  | None -> invalid_arg "Kvm.vm_memory: no user memory region registered"

let vm_system vm = vm.sys

let create_vcpu vm ~mode =
  let sys = vm.sys in
  kspan sys "kvm_create_vcpu" (fun () ->
      charge sys Cycles.Costs.kvm_create_vcpu;
      sys.stats.vcpu_creations <- tally sys "kvm_vcpu_creations_total" sys.stats.vcpu_creations;
      (* the vCPU charges the clock of the core that created it: shells
         stay in their owning core's pool shard, so guest execution is
         always billed to that core *)
      let cpu = Vm.Cpu.create ~mem:(vm_memory vm) ~mode ~clock:(clock vm.sys) in
      { parent = vm; cpu; trans = Vm.Translate.create ~stats:vm.sys.translation cpu })

let vcpu_cpu v = v.cpu
let vcpu_vm v = v.parent
let translation_stats sys = sys.translation

(* Shell reuse: the translation table is kept. The pool's reset_zero
   bumped the memory epoch, so each block is compared with the restored
   bytes when first reentered and kept if they are unchanged. *)
let reset_vcpu v ~mode = Vm.Cpu.reset v.cpu ~mode

(* The "exit" event of one KVM_RUN: [cycles] is the run's entry-to-exit
   duration on the current core's clock; [port], [value] and [detail]
   are the flight ring's payload. *)
let emit_exit sys v ~t0 ~fuel (exit : Vm.Cpu.exit_reason) =
  let reason, port, value, nr, detail =
    match exit with
    | Halt -> (Vtrace.Ctx.Hlt, 0, 0L, 0L, "")
    | Io_out { port; value } when (match sys.hc_port with Some p -> p = port | None -> false) ->
        (Hypercall, port, value, value, "")
    | Io_out { port; value } -> (Io_out, port, value, Int64.of_int port, "")
    | Io_in { port; reg = _ } -> (Io_in, port, 0L, Int64.of_int port, "")
    | Fault _ -> (Fault, 0, 0L, 0L, Format.asprintf "%a" Vm.Cpu.pp_exit exit)
    | Out_of_fuel -> (Fuel, 0, 0L, 0L, "")
  in
  let cycles = Int64.sub (Cycles.Clock.now (clock sys)) t0 and fuel = Option.value fuel ~default:0 in
  emit sys
    { site = Exit; core = sys.cur; trace = active_trace sys; fn = ""; pc = Vm.Cpu.pc v.cpu;
      reason; cycles; fuel; nr; port; value; detail }

let run ?fuel v =
  let sys = v.parent.sys in
  sys.stats.runs <- tally sys "kvm_runs_total" sys.stats.runs;
  let t0 = Cycles.Clock.now (clock sys) in
  Vm.Translate.set_block_hook v.trans sys.block_probe;
  let exit =
    kspan sys "vcpu_run" (fun () ->
        charge sys (Cycles.Costs.ioctl_syscall + Cycles.Costs.kvm_run_checks + Cycles.Costs.vmentry);
        sys.active_cpu <- Some v.cpu;
        let exit =
          Fun.protect ~finally:(fun () -> sys.active_cpu <- None) (fun () ->
              (* Fault-plan perturbations inside KVM_RUN. Injected costs
                 are charged without jitter: the chaos timeline must
                 replay cycle-for-cycle under the same plan. *)
              if plan_fires sys site_spurious_exit then
                (* one spurious exit: a wasted exit/re-entry round trip
                   before the guest makes progress *)
                Cycles.Clock.advance_int (clock sys)
                  (Cycles.Costs.vmexit + Cycles.Costs.ioctl_syscall
                 + Cycles.Costs.kvm_run_checks + Cycles.Costs.vmentry);
              if plan_fires sys site_ept_storm then
                (* a burst of EPT violations that make no forward
                   progress (walk + exit + re-entry, no page copied) *)
                Cycles.Clock.advance_int (clock sys) (8 * Cycles.Costs.ept_violation);
              if plan_fires sys site_guest_hang then begin
                (* the guest spins without retiring useful work until the
                   fuel watchdog kills it *)
                let spin = match fuel with Some f -> max f 1 | None -> 1_000_000 in
                Cycles.Clock.advance_int (clock sys) (spin * Cycles.Costs.alu);
                Vm.Cpu.Out_of_fuel
              end
              else if sys.translate then Vm.Translate.run ?fuel v.trans
              else Vm.Cpu.run ?fuel v.cpu)
        in
        charge sys Cycles.Costs.vmexit;
        exit)
  in
  emit_exit sys v ~t0 ~fuel exit;
  exit

(* Background shell construction for the pool's pipelined prewarm: the
   same VM + memory + vCPU assembly as the charged path, but with no
   clock charges, no spans and no fault-plan opportunities — the caller
   books the deterministic construction cost against its idle-cycle
   budget instead. The vCPU is bound to [core]'s clock regardless of the
   current core, so a prewarmed shell later runs on its owning shard's
   clock exactly like a synchronously created one. *)
let build_shell sys ~core ~size ~mode =
  if core < 0 || core >= Array.length sys.clocks then
    invalid_arg "Kvm.build_shell: no such core";
  sys.stats.vm_creations <- tally sys "kvm_vm_creations_total" sys.stats.vm_creations;
  sys.stats.vcpu_creations <- tally sys "kvm_vcpu_creations_total" sys.stats.vcpu_creations;
  let vm = { sys; memory = None } in
  let mem = Vm.Memory.create ~size in
  Vm.Memory.set_fault_hook mem
    (Some (fun ~shared ~page -> on_page_fault sys ~shared ~page));
  vm.memory <- Some mem;
  let cpu = Vm.Cpu.create ~mem ~mode ~clock:sys.clocks.(core) in
  { parent = vm; cpu; trans = Vm.Translate.create ~stats:sys.translation cpu }
