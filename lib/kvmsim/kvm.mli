(** Simulated KVM interface.

    Mirrors the Linux KVM lifecycle Wasp drives: open [/dev/kvm], create a
    VM file descriptor ([KVM_CREATE_VM] — the expensive in-kernel
    VMCS/VMCB and state allocation), register a user memory region, create
    a vCPU, and enter the guest with the [KVM_RUN] ioctl. Each step
    charges the calibrated host-side cycle costs (Figure 2/8), including
    the ring transitions that make hypercall exits "doubly expensive"
    (§6.3). *)

type system
(** An open /dev/kvm: owns the virtual clock and noise source. *)

type vm
type vcpu

type stats = {
  mutable vm_creations : int;
  mutable vcpu_creations : int;
  mutable runs : int;
  mutable io_exits : int;
  mutable fault_exits : int;
  mutable ept_violations : int;
      (** CoW breaks of shared guest pages (simulated EPT
          write-protection violations); each charged
          [Costs.ept_violation + memcpy_cost page_size]. *)
  mutable injected_faults : int;
      (** Fault-plan injections fired through this system (all sites). *)
}

exception Injected_failure of string
(** Raised by operations the armed fault plan makes fail outright
    (currently {!site_provision_fail} in {!create_vm}). The payload is
    the site name. *)

(** {2 Fault injection}

    Arm a {!Cycles.Fault_plan.t} and the simulated KVM perturbs itself at
    these sites (see [docs/robustness.md]):

    - {!site_spurious_exit}: one opportunity per {!run}; a fire charges a
      wasted exit/re-entry round trip before the guest makes progress.
    - {!site_ept_storm}: one opportunity per {!run}; a fire charges a
      burst of 8 no-progress EPT violations.
    - {!site_guest_hang}: one opportunity per {!run}; a fire burns the
      caller's entire fuel budget and returns [Vm.Cpu.Out_of_fuel] without
      executing the guest.
    - {!site_provision_fail}: one opportunity per {!create_vm}; a fire
      raises {!Injected_failure} after charging the failed ioctl's
      syscall round trip.
    - {!site_snapshot_corrupt} is consumed by the Wasp runtime (one
      opportunity per snapshot restore): a fire overwrites the restored
      page under the guest PC with an invalid-opcode pattern, so the
      guest faults deterministically at its first fetch.
    - {!site_ring_corrupt} is consumed by the Wasp runtime (one
      opportunity per {!Hc.ring_enter} doorbell): a fire makes the drain
      treat the ring header as corrupt, so the whole batch completes as
      a guest fault (retryable under supervision) without dispatching.

    Injected costs are charged {e without} jitter, so a chaos run under
    the same plan and seed replays cycle-for-cycle. Each fire emits an
    [inject] event: it bumps [stats.injected_faults], the
    [wasp_faults_injected_total] counter (plain and [site]-labeled) and
    leaves an [INJECTED] entry in the attached flight ring. *)

val site_spurious_exit : string
val site_ept_storm : string
val site_provision_fail : string
val site_guest_hang : string
val site_snapshot_corrupt : string
val site_ring_corrupt : string

val set_fault_plan : system -> Cycles.Fault_plan.t option -> unit
(** Arm (or disarm) a fault plan. The plan's state advances as
    opportunities are consumed; use {!Cycles.Fault_plan.copy} to arm an
    identical fresh plan elsewhere. *)

val fault_plan : system -> Cycles.Fault_plan.t option

val plan_fires : system -> string -> bool
(** Consume one opportunity at the named site against the armed plan
    (false when none is armed). A fire emits the [inject] event but
    charges no cycles; the caller applies the consequence. Exposed for
    sites that live above the KVM layer (the runtime's
    {!site_snapshot_corrupt}). *)

val open_dev :
  ?seed:int -> ?freq_ghz:float -> ?cores:int -> ?translate:bool -> unit -> system
(** [cores] (default 1) gives the system that many per-core virtual
    clocks; all charges land on the {e current} core's clock (see
    {!set_core}). [translate] (default [true]) executes guests through
    the {!Vm.Translate} superblock cache; either way the simulated
    cycle counts are bit-for-bit identical, only wall-clock differs. *)

val clock : system -> Cycles.Clock.t
(** The current core's clock (core 0 until {!set_core} is called). *)

val cores : system -> int
val current_core : system -> int

val core_clock : system -> int -> Cycles.Clock.t

val set_core : system -> int -> unit
(** Make [core] current: subsequent charges, vCPU creations and span
    stamps (the attached hub is retargeted) land on its clock. The
    multi-core scheduler calls this before running each task. *)

val rng : system -> Cycles.Rng.t
val stats : system -> stats

val translation_stats : system -> Vm.Translate.stats
(** Counters summed over the superblock caches of every vCPU the system
    created (blocks compiled, dispatches, invalidations, interpreter
    fallbacks); cumulative, so callers take deltas around a run. *)

val exit_reason_counts : system -> (string * int) list
(** Always-on per-reason tally of every {!run} return — the
    [kvm_exits_total{reason}] series ([hlt]/[hypercall]/[io_out]/
    [io_in]/[fault]/[fuel]) readable without a telemetry hub, reasons
    that never occurred omitted, sorted by reason. Kept as an array
    indexed by exit kind. The fuzzer hashes it (with the flight ring's
    exit-edge pairs) into its coverage bitmap after each candidate. *)

(** {2 The event stream}

    Every instrumentation site — here and in the layers above, which all
    share this system — builds one {!Vtrace.Ctx.t} per occurrence with
    {!event} and hands it to {!emit}. A layer that keeps a stats record
    folds its own events into that record and the matching counter (one
    arm per reason, through {!tally}) before emitting; {!emit} does the
    same for KVM's own facts ([exit], [ept], [inject]: {!stats},
    {!exit_reason_counts}), then feeds the flight ring and the probe
    engine. With no hub, ring or probe attached an event costs its stats
    fold and one branch; no sink charges simulated cycles. See
    [docs/observability.md]. *)

val event :
  system -> ?core:int -> ?fn:string -> ?pc:int -> cycles:int64 -> nr:int ->
  Vtrace.Ctx.site -> Vtrace.Ctx.reason -> Vtrace.Ctx.t
(** The one event constructor: stamps [core] (default the current
    core), the active trace and [pc] (default the PC of the vCPU inside
    [KVM_RUN], 0 outside one). *)

val emit : system -> Vtrace.Ctx.t -> unit

val probe_event :
  system -> ?core:int -> cycles:int64 -> nr:int -> Vtrace.Ctx.site -> Vtrace.Ctx.reason -> unit
(** {!event} then {!emit} for sites whose only sink is the probe engine
    (hypercall, ring, scheduler): nothing is built unless an attached
    probe targets the site. *)

val count : system -> ?help:string -> ?labels:(string * string) list -> ?by:int -> string -> unit
(** Bump a counter on the attached hub, if any. *)

val tally : system -> ?help:string -> ?by:int -> string -> int -> int
(** [tally sys name v] counts [name] and returns [v + by], so a stats
    field and its counter advance in one expression. *)

val instant : system -> ?args:(string * string) list -> string -> unit
(** A span-sink instant on the attached hub, if any. *)

val set_telemetry : system -> Telemetry.Hub.t option -> unit
(** Attach (or detach) a telemetry hub: event counters and instants land
    on it, and KVM transitions (vm-create, memslot/EPT build,
    vcpu-create, [KVM_RUN]) open spans and bump [kvm_*] counters. Layers
    above read it back with {!telemetry}. The hub must share this
    system's clock. *)

val telemetry : system -> Telemetry.Hub.t option

val set_flight : system -> Profiler.Flight.t option -> unit
(** Attach (or detach) a flight recorder: every VM exit {!run} observes
    (halt, I/O, fault, fuel), every EPT break and every injection is
    recorded with its cycle stamp, core id and guest PC. The runtime
    dumps the ring as a black-box report when a guest faults or violates
    hypercall policy. *)

val flight : system -> Profiler.Flight.t option

val set_probes : system -> Vtrace.Engine.t option -> unit
(** Attach (or detach) a vtrace probe engine; it sees every event. The
    KVM layer's own sites: ["exit"] (every {!run} return — reason
    [hlt]/[io_out]/[io_in]/[fault]/[fuel], or [hypercall] with [nr] =
    the hypercall number when the out port matches {!set_hc_port};
    [cycles] = the run's entry-to-exit duration), ["ept"] (CoW break;
    [nr] = page, [cycles] = charged cost), ["inject"] (fault-plan fire;
    [reason] = site) and ["block"] (superblock entry under the
    translated engine — installed as a {!Vm.Translate} block hook, so it
    does {e not} force the interpreter fallback). *)

val probes : system -> Vtrace.Engine.t option

val set_hc_port : system -> int option -> unit
(** Declare the hypercall port (the runtime above passes its [Hc.port]):
    [Io_out] exits on it are ["hypercall"] exits with [nr] = the value
    written (the hypercall number). *)

val create_vm : system -> vm
(** [KVM_CREATE_VM]: charges the in-kernel allocation cost. A creation
    is counted ([stats.vm_creations], [kvm_vm_creations_total]) only
    when the ioctl succeeds, not when the fault plan fails it. *)

val set_user_memory_region : vm -> size:int -> Vm.Memory.t
(** Allocate and register guest memory; charges the memslot setup cost.
    Replaces any previous region. Installs the memory's fault hook: CoW
    breaks of shared pages charge the simulated EPT-violation cost and
    land in the flight ring (demand-zero fills are free). *)

val vm_memory : vm -> Vm.Memory.t
(** Raises [Invalid_argument] if no region was registered. *)

val vm_system : vm -> system

val create_vcpu : vm -> mode:Vm.Modes.t -> vcpu
(** Charges vCPU allocation. The vCPU starts in [mode] (the guest boot
    code's mode transitions are charged separately by {!Vm.Boot}). *)

val vcpu_cpu : vcpu -> Vm.Cpu.t
(** Direct register/PC access for the user-space VMM, like
    [KVM_GET/SET_REGS]. *)

val vcpu_vm : vcpu -> vm

val reset_vcpu : vcpu -> mode:Vm.Modes.t -> unit
(** Clear architectural state for shell reuse; memory is untouched.
    Translated blocks are kept: every reused shell's memory went through
    {!Vm.Memory.reset_zero}, whose epoch bump makes each block's first
    reentry compare it with the bytes the next image wrote back. Equal
    bytes reuse the block, so a shell rerunning its image translates
    nothing. *)

val run : ?fuel:int -> vcpu -> Vm.Cpu.exit_reason
(** The [KVM_RUN] ioctl: charges syscall entry, in-kernel checks and VM
    entry; executes the guest until it exits; charges VM exit and the
    return to user space. Resumable after I/O exits. Each return also
    bumps the [kvm_exits_total{reason}] counter
    ([hlt]/[hypercall]/[io_out]/[io_in]/[fault]/[fuel]). *)

val build_shell : system -> core:int -> size:int -> mode:Vm.Modes.t -> vcpu
(** Background shell assembly for pipelined pool refill: the same
    VM + memory + vCPU construction as {!create_vm} /
    {!set_user_memory_region} / {!create_vcpu}, but charging {e no}
    cycles, opening no spans and consuming no fault-plan opportunities —
    the caller accounts the deterministic construction cost against an
    idle-cycle budget (see {!Wasp.Pool}). The vCPU is bound to [core]'s
    clock so a prewarmed shell later executes on its owning shard's
    clock. Creation stats and their counters are still bumped. *)
