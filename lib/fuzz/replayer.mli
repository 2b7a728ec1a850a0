(** The one [.vxr] re-execution path.

    {!execute} runs a recording's header (image as recorded, seed,
    policy, fuel, fault plan) into a fresh recording; the differential
    oracle runs every fuzz case through it. {!replay} adds the pass
    verdict shared by [wasprun --replay] and [fuzz_cli --check-fixtures]:
    zero {!Profiler.Replay.diff} divergences {e and} a byte-identical
    re-serialization. Any [wasprun --record] output is a valid fixture. *)

val recorder :
  Wasp.Image.t -> seed:int -> policy:string -> fuel:int -> plan:string option -> Profiler.Replay.t
(** A recording seeded with the image and environment, no transcript
    yet: how every recording path seeds its recorder, before the run.
    [policy] and [plan] are in their [.vxr] text forms. *)

val finish : Profiler.Replay.t -> Wasp.Runtime.result -> unit
(** Close a recording with the invocation's cycles, coarse outcome and
    return value. *)

val setup_vhttp_env : Wasp.Runtime.t -> Wasp.Hostenv.endpoint * Wasp.Hostenv.endpoint
(** The ringed fileserver's host environment: the static corpus plus a
    [(client, server)] socket pair whose client end already carries one
    GET request. {!execute} rebuilds it for every image whose name
    starts with ["fileserver"]. *)

val machine :
  Profiler.Replay.t ->
  (Wasp.Image.t * Wasp.Policy.t * Cycles.Fault_plan.t option, string) result
(** The header as a runnable machine: the image exactly as recorded,
    the parsed policy and a freshly parsed fault plan. *)

type run = {
  runtime : Wasp.Runtime.t;
  recording : Profiler.Replay.t;  (** seeded by {!recorder}, finished in place *)
  result : Wasp.Runtime.result option;
      (** [None]: a plan arming [provision_fail] injected the failure,
          recorded as faulted at cycle 0 *)
}

val execute :
  ?reset:Wasp.Runtime.reset_mode ->
  ?runs:int ->
  ?snapshot_key:string ->
  ?probes:Vtrace.Engine.t ->
  ?profiler:Profiler.Profile.t ->
  ?inspect:(Vm.Memory.t -> Vm.Cpu.t -> unit) ->
  ?flight_capacity:int ->
  translate:bool ->
  Profiler.Replay.t ->
  (run, string) result
(** Re-execute a header on a fresh runtime created with the recorded
    seed; [runs] (default 1) invocations share the runtime and the
    recording. [Error] is {!machine}'s; exceptions the plan cannot
    explain propagate. *)

val replay :
  ?probes:Vtrace.Engine.t ->
  ?flight_capacity:int ->
  translate:bool ->
  Profiler.Replay.t ->
  (unit, string list) result
(** The pass verdict; [Error] lists the divergences (or the crash).
    Never raises. *)
