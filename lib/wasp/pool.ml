type shell = {
  vm : Kvmsim.Kvm.vm;
  vcpu : Kvmsim.Kvm.vcpu;
  mem : Vm.Memory.t;
  mem_size : int;
  home : int;
}

type clean_mode = Sync | Async

type reclaim_policy = Eager | Scheduled

type stats = {
  mutable created : int;
  mutable reused : int;
  mutable cleans : int;
  mutable background_cycles : int64;
  mutable evicted : int;
  mutable clean_stalls : int;
  mutable stall_cycles : int64;
  mutable prewarmed : int;
  mutable prewarm_hits : int;
}

type prewarm = { pw_mem_size : int; pw_mode : Vm.Modes.t; pw_target : int }

type cached = { c_shell : shell; last_used : int64 }

type pending = { p_shell : shell; mutable remaining : int }

type shard = {
  id : int;
  buckets : (int, cached list ref) Hashtbl.t;  (* mem_size -> MRU-first list *)
  reclaim : pending Queue.t;                   (* oldest release first *)
  prewarmed : shell Queue.t;                   (* pre-built, never-run shells *)
  mutable cached_count : int;
}

type t = {
  sys : Kvmsim.Kvm.system;
  shards : shard array;
  clean : clean_mode;
  capacity : int;
  mutable policy : reclaim_policy;
  mutable prewarm : prewarm option;
  stats : stats;
}

let create ?(capacity = 64) sys ~clean =
  if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
  {
    sys;
    shards =
      Array.init (Kvmsim.Kvm.cores sys) (fun id ->
          {
            id;
            buckets = Hashtbl.create 8;
            reclaim = Queue.create ();
            prewarmed = Queue.create ();
            cached_count = 0;
          });
    clean;
    capacity;
    policy = Eager;
    prewarm = None;
    stats =
      {
        created = 0;
        reused = 0;
        cleans = 0;
        background_cycles = 0L;
        evicted = 0;
        clean_stalls = 0;
        stall_cycles = 0L;
        prewarmed = 0;
        prewarm_hits = 0;
      };
  }

let stats t = t.stats

(* The stats fold: what each pool event adds to the pool's own record. *)
let account (s : stats) (ev : Vtrace.Ctx.t) =
  let cycles = ev.cycles in
  match (ev.site, ev.reason) with
  | Pool_acquire, "miss" -> s.created <- s.created + 1
  | Pool_acquire, reason ->
      if reason = "stall" then begin
        s.clean_stalls <- s.clean_stalls + 1;
        s.stall_cycles <- Int64.add s.stall_cycles cycles;
        s.background_cycles <- Int64.add s.background_cycles cycles
      end;
      s.reused <- s.reused + 1
  | Pool_release, reason ->
      s.cleans <- s.cleans + 1;
      if reason = "async" then s.background_cycles <- Int64.add s.background_cycles cycles
  | Pool_evict, _ -> s.evicted <- s.evicted + 1
  | Pool_prewarm, "build" ->
      s.prewarmed <- s.prewarmed + 1;
      s.background_cycles <- Int64.add s.background_cycles cycles
  | Pool_prewarm, _ -> s.prewarm_hits <- s.prewarm_hits + 1
  | _ -> ()

(* One pool event: folded into the stats, then into the system's sinks.
   Zero simulated cycles. *)
let emit t site ~reason ~cycles ~nr =
  let ev =
    {
      Vtrace.Ctx.empty with
      site;
      core = Kvmsim.Kvm.current_core t.sys;
      trace = Kvmsim.Kvm.active_trace t.sys;
      reason;
      cycles;
      nr = Int64.of_int nr;
    }
  in
  account t.stats ev;
  Kvmsim.Kvm.emit t.sys ev

let hub t = Kvmsim.Kvm.telemetry t.sys

let set_reclaim_policy t policy = t.policy <- policy
let reclaim_policy t = t.policy

let shard_size s = s.cached_count
let size t = Array.fold_left (fun acc s -> acc + s.cached_count) 0 t.shards
let shard_sizes t = Array.map shard_size t.shards

let reclaim_depth t ~core = Queue.length t.shards.(core).reclaim
let reclaim_pending t =
  Array.fold_left (fun acc s -> acc + Queue.length s.reclaim) 0 t.shards

let tgauge t name v =
  match hub t with None -> () | Some h -> Telemetry.Hub.set_gauge h name v

let note_size t =
  tgauge t "wasp_pool_size" (float_of_int (size t));
  if Array.length t.shards > 1 then
    Array.iter
      (fun s ->
        tgauge t (Printf.sprintf "wasp_pool_size_core%d" s.id) (float_of_int s.cached_count))
      t.shards

let note_reclaim t shard =
  tgauge t "wasp_pool_reclaim_depth" (float_of_int (reclaim_pending t));
  if Array.length t.shards > 1 then
    tgauge t
      (Printf.sprintf "wasp_pool_reclaim_depth_core%d" shard.id)
      (float_of_int (Queue.length shard.reclaim))

let current_shard t = t.shards.(Kvmsim.Kvm.current_core t.sys)

let bucket shard mem_size =
  match Hashtbl.find_opt shard.buckets mem_size with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace shard.buckets mem_size l;
      l

(* Evict the least-recently-used cached shell of [shard] (the tail of the
   bucket whose oldest entry has the smallest stamp). *)
let evict_lru t shard =
  let victim = ref None in
  Hashtbl.iter
    (fun mem_size l ->
      match List.rev !l with
      | [] -> ()
      | oldest :: _ -> (
          match !victim with
          | Some (_, stamp) when stamp <= oldest.last_used -> ()
          | _ -> victim := Some (mem_size, oldest.last_used)))
    shard.buckets;
  match !victim with
  | None -> ()
  | Some (mem_size, _) ->
      let l = bucket shard mem_size in
      (match List.rev !l with
      | [] -> ()
      | _oldest :: rest_rev ->
          l := List.rev rest_rev;
          shard.cached_count <- shard.cached_count - 1;
          emit t Pool_evict ~reason:"lru" ~cycles:0L ~nr:mem_size)

(* Return a cleaned shell to its shard's cache, evicting the LRU entry
   when the shard is over capacity. *)
let cache t shell =
  let shard = t.shards.(shell.home) in
  let now = Cycles.Clock.now (Kvmsim.Kvm.core_clock t.sys shard.id) in
  let l = bucket shard shell.mem_size in
  l := { c_shell = shell; last_used = now } :: !l;
  shard.cached_count <- shard.cached_count + 1;
  if shard.cached_count > t.capacity then evict_lru t shard;
  note_size t

let pop_cached shard mem_size =
  match Hashtbl.find_opt shard.buckets mem_size with
  | None | Some { contents = [] } -> None
  | Some l ->
      let hd = List.hd !l in
      l := List.tl !l;
      shard.cached_count <- shard.cached_count - 1;
      Some hd.c_shell

(* Remove the oldest pending clean for [mem_size], preserving queue order
   of the rest. *)
let take_pending shard mem_size =
  let n = Queue.length shard.reclaim in
  let found = ref None in
  for _ = 1 to n do
    let p = Queue.pop shard.reclaim in
    if !found = None && p.p_shell.mem_size = mem_size then found := Some p
    else Queue.push p shard.reclaim
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Pipelined pre-boot (async refill)                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic cost of building one shell from scratch — the same
   KVM_CREATE_VM + memslot + KVM_CREATE_VCPU path a miss charges, minus
   the jitter (background work must replay cycle-for-cycle). *)
let shell_cost =
  Cycles.Costs.kvm_create_vm + Cycles.Costs.kvm_memory_region
  + Cycles.Costs.kvm_create_vcpu

let set_prewarm t cfg =
  (match cfg with
  | Some { pw_target; pw_mem_size; _ } ->
      if pw_target < 1 then invalid_arg "Pool.set_prewarm: target must be >= 1";
      if pw_mem_size < 1 then invalid_arg "Pool.set_prewarm: mem_size must be >= 1"
  | None -> ());
  t.prewarm <- cfg

let prewarm t = t.prewarm

let prewarm_depth t ~core = Queue.length t.shards.(core).prewarmed

let note_prewarm t =
  tgauge t "wasp_pool_prewarm_depth"
    (float_of_int
       (Array.fold_left (fun acc s -> acc + Queue.length s.prewarmed) 0 t.shards));
  tgauge t "wasp_pool_background_cycles" (Int64.to_float t.stats.background_cycles)

(* Book one background shell build against [core]'s shard without
   touching any clock: Kvm.build_shell charges nothing, the construction
   cost lands in [background_cycles] and the caller's idle budget. *)
let build_prewarmed t ~core ~mem_size ~mode =
  let vcpu = Kvmsim.Kvm.build_shell t.sys ~core ~size:mem_size ~mode in
  let vm = Kvmsim.Kvm.vcpu_vm vcpu in
  let shell =
    { vm; vcpu; mem = Kvmsim.Kvm.vm_memory vm; mem_size; home = core }
  in
  Queue.push shell t.shards.(core).prewarmed;
  emit t Pool_prewarm ~reason:"build" ~cycles:(Int64.of_int shell_cost) ~nr:mem_size

let prewarm_step t ~core ~budget =
  match t.prewarm with
  | None -> 0
  | Some { pw_mem_size; pw_mode; pw_target } ->
      let shard = t.shards.(core) in
      let spent = ref 0 in
      while
        Queue.length shard.prewarmed < pw_target && !spent + shell_cost <= budget
      do
        build_prewarmed t ~core ~mem_size:pw_mem_size ~mode:pw_mode;
        spent := !spent + shell_cost
      done;
      if !spent > 0 then note_prewarm t;
      !spent

let take_prewarmed t ~mem_size ~mode =
  let shard = current_shard t in
  match Queue.peek_opt shard.prewarmed with
  | Some shell when shell.mem_size = mem_size ->
      ignore (Queue.pop shard.prewarmed);
      (* The handoff is one ioctl to adopt the prepared context, plus a
         vCPU reset into the requested mode — never the creation path. *)
      Cycles.Clock.advance_int (Kvmsim.Kvm.clock t.sys) Cycles.Costs.ioctl_syscall;
      Kvmsim.Kvm.reset_vcpu shell.vcpu ~mode;
      emit t Pool_prewarm ~reason:"take" ~cycles:(Int64.of_int Cycles.Costs.ioctl_syscall)
        ~nr:mem_size;
      (* Standalone (Eager) mode assumes the background builder keeps
         up, mirroring Async+Eager cleaning: refill immediately as
         background work. Scheduled mode waits for idle-cycle
         prewarm_step calls. *)
      (match (t.policy, t.prewarm) with
      | Eager, Some { pw_mem_size; pw_mode; pw_target } ->
          if
            pw_mem_size = mem_size
            && Queue.length shard.prewarmed < pw_target
          then build_prewarmed t ~core:shard.id ~mem_size:pw_mem_size ~mode:pw_mode
      | (Eager | Scheduled), _ -> ());
      note_prewarm t;
      Some shell
  | Some _ | None -> None

let acquire t ~mem_size ~mode =
  let shard = current_shard t in
  (* A nested span (inside the provision phase) so a traced request can
     attribute its provision cycles to hit/stall/miss specifically. *)
  let tspan f =
    match hub t with
    | None -> f ()
    | Some h ->
        Telemetry.Hub.with_span h
          ~args:[ ("mem_size", string_of_int mem_size) ]
          "pool_acquire" f
  in
  tspan @@ fun () ->
  let acquired reason ~cycles = emit t Pool_acquire ~reason ~cycles ~nr:mem_size in
  let result =
    match pop_cached shard mem_size with
    | Some shell ->
        acquired "hit" ~cycles:0L;
        Kvmsim.Kvm.reset_vcpu shell.vcpu ~mode;
        (shell, true)
    | None -> (
        match take_pending shard mem_size with
        | Some p ->
            (* The only matching shells are still on the reclaim queue:
               the acquire blocks on the in-flight clean and pays the
               remaining cycles — this is where deferred cleaning becomes
               visible in tail latency. *)
            Cycles.Clock.advance_int (Kvmsim.Kvm.clock t.sys) p.remaining;
            acquired "stall" ~cycles:(Int64.of_int p.remaining);
            note_reclaim t shard;
            Kvmsim.Kvm.reset_vcpu p.p_shell.vcpu ~mode;
            (p.p_shell, true)
        | None -> (
            match take_prewarmed t ~mem_size ~mode with
            | Some shell ->
                (* Pipelined pre-boot hit: the shell was built on idle
                   cycles, so the acquire pays only the handoff. *)
                acquired "prewarm" ~cycles:0L;
                (shell, true)
            | None ->
                acquired "miss" ~cycles:0L;
                let vm = Kvmsim.Kvm.create_vm t.sys in
                let mem = Kvmsim.Kvm.set_user_memory_region vm ~size:mem_size in
                let vcpu = Kvmsim.Kvm.create_vcpu vm ~mode in
                ({ vm; vcpu; mem; mem_size; home = Kvmsim.Kvm.current_core t.sys }, false)))
  in
  note_size t;
  result

let release t shell =
  (* Drop every page reference and start a clean dirty generation: the
     host-side work is O(pages), but the simulated cost model still
     charges the memset this stands for — the cleaning the paper's
     dedicated cleaner thread performs (Figure 8's Wasp+CA). *)
  Vm.Memory.reset_zero shell.mem;
  let cost = Cycles.Costs.memset_cost shell.mem_size in
  match (t.clean, t.policy) with
  | Sync, _ ->
      emit t Pool_release ~reason:"sync" ~cycles:(Int64.of_int cost) ~nr:shell.mem_size;
      Cycles.Clock.advance_int (Kvmsim.Kvm.clock t.sys) cost;
      cache t shell
  | Async, Eager ->
      (* standalone mode: a dedicated cleaner thread is assumed to keep
         up, so the cost is pure background work *)
      emit t Pool_release ~reason:"async" ~cycles:(Int64.of_int cost) ~nr:shell.mem_size;
      tgauge t "wasp_pool_background_cycles" (Int64.to_float t.stats.background_cycles);
      cache t shell
  | Async, Scheduled ->
      (* scheduler mode: the shell is unavailable until a cleaner core
         drains it (or an acquire stalls on it) *)
      emit t Pool_release ~reason:"scheduled" ~cycles:(Int64.of_int cost)
        ~nr:shell.mem_size;
      let shard = t.shards.(shell.home) in
      Queue.push { p_shell = shell; remaining = cost } shard.reclaim;
      note_reclaim t shard;
      note_size t

let drain t ~core ~budget =
  let shard = t.shards.(core) in
  let spent = ref 0 in
  let continue_ = ref true in
  while !continue_ && !spent < budget && not (Queue.is_empty shard.reclaim) do
    let p = Queue.peek shard.reclaim in
    let step = min p.remaining (budget - !spent) in
    p.remaining <- p.remaining - step;
    spent := !spent + step;
    t.stats.background_cycles <- Int64.add t.stats.background_cycles (Int64.of_int step);
    if p.remaining = 0 then begin
      ignore (Queue.pop shard.reclaim);
      cache t p.p_shell
    end
    else continue_ := false
  done;
  if !spent > 0 then begin
    tgauge t "wasp_pool_background_cycles" (Int64.to_float t.stats.background_cycles);
    note_reclaim t shard
  end;
  !spent
