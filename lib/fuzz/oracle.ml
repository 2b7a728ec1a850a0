(* The differential oracle.

   Every candidate executes several times under configurations the
   determinism contract says must agree, and any disagreement is a
   finding even when nothing crashes:

   - interpreter vs [Vm.Translate] (bit-identical everything, cycles
     included — the translation-cache parity contract);
   - eager [`Memcpy] vs lazy [`Cow] snapshot restore (identical
     guest-visible results; cycles legitimately differ between the two
     reset mechanisms, so timing is excluded from this comparison);
   - a .vxr round trip: the canonical recording's text, reparsed, must
     pass Replayer.replay — the committed-fixture verdict, exercised on
     every candidate;
   - host exceptions escaping the runtime anywhere are crashes
     (Injected_failure under a plan that arms provision_fail is an
     outcome, not a crash).

   Canaries are deliberately wrong harness arms — never product code —
   used by the fuzz smoke test to prove a planted bug is detected:
   [Shift_mask] re-runs the guest raw with the reverted shift-count
   guard emulated via a step hook; [Cycle_skew] perturbs the translated
   arm's cycle observation. *)

type obs = {
  o_outcome : string;
  o_ret : int64;
  o_cycles : int64;
  o_hypercalls : int;
  o_denied : int;
  o_state : string;  (* MD5 of final registers + guest memory *)
  o_recording : Profiler.Replay.t;  (* header + hypercall transcript *)
}

type fclass =
  | Host_exception
  | Engine_divergence
  | Restore_divergence
  | Replay_divergence
  | Canary_divergence

let fclass_name = function
  | Host_exception -> "host-exception"
  | Engine_divergence -> "engine-divergence"
  | Restore_divergence -> "restore-divergence"
  | Replay_divergence -> "replay-divergence"
  | Canary_divergence -> "canary-divergence"

type canary = Shift_mask | Cycle_skew

let canary_of_string = function
  | "shift-mask" -> Some Shift_mask
  | "cycle-skew" -> Some Cycle_skew
  | _ -> None

let canary_name = function Shift_mask -> "shift-mask" | Cycle_skew -> "cycle-skew"

type verdict = {
  features : string list;  (* coverage features of the canonical run *)
  recording : Profiler.Replay.t option;  (* canonical transcript *)
  finding : (fclass * string) option;
}

(* Probes whose firing maps feed the coverage bitmap. *)
let coverage_spec =
  "exit { count() by (reason) }; hypercall { count() by (nr) }; hypercall_ret \
   { count() by (reason) }; ept { count() }; inject { count() by (reason) }; \
   ring_enter { count() }; ring_op { count() by (nr) }"

(* Detailed outcome for differential comparison (the recording carries
   the coarse form). *)
let outcome_string = function
  | Wasp.Runtime.Exited _ -> "exited"
  | Wasp.Runtime.Faulted f -> Format.asprintf "%a" Vm.Cpu.pp_exit (Vm.Cpu.Fault f)
  | Wasp.Runtime.Fuel_exhausted -> "fuel"

(* ------------------------------------------------------------------ *)
(* One runtime-level execution arm                                     *)
(* ------------------------------------------------------------------ *)

type arm_result = Obs of obs | Crash of string

let state_digest mem cpu =
  let b = Buffer.create 256 in
  for i = 0 to Instr.num_regs - 1 do
    Buffer.add_string b (Int64.to_string (Vm.Cpu.get_reg cpu i));
    Buffer.add_char b ','
  done;
  Buffer.add_bytes b (Vm.Memory.snapshot mem);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Run [case] once ([runs] times in one runtime for the restore arms)
   through the replayer and observe the last invocation. Anything an
   armed plan can inject — including a provision_fail — is an outcome,
   not a crash; only exceptions the plan cannot explain are. [post]
   observes the runtime after the runs (coverage harvest). *)
let run_arm ?(translate = false) ?reset ?runs ?snapshot_key ?probes ?profiler
    ?(post = fun (_ : Wasp.Runtime.t) -> ()) (case : Corpus.case) : arm_result =
  let state = ref "" in
  let inspect mem cpu = state := state_digest mem cpu in
  match
    Replayer.execute ~translate ?reset ?runs ?snapshot_key ?probes ?profiler ~inspect
      ~flight_capacity:256 (Corpus.to_replay case)
  with
  | Error e -> Crash e
  | exception e -> Crash (Printexc.to_string e)
  | Ok { Replayer.result = None; recording; _ } ->
      Obs
        {
          o_outcome = "injected:" ^ Kvmsim.Kvm.site_provision_fail;
          o_ret = 0L;
          o_cycles = 0L;
          o_hypercalls = 0;
          o_denied = 0;
          o_state = "";
          o_recording = recording;
        }
  | Ok { Replayer.result = Some r; recording; runtime } ->
      post runtime;
      Obs
        {
          o_outcome = outcome_string r.outcome;
          o_ret = r.return_value;
          o_cycles = r.cycles;
          o_hypercalls = r.hypercalls;
          o_denied = r.denied;
          o_state = !state;
          o_recording = recording;
        }

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let events o = Profiler.Replay.events o.o_recording

let events_brief evs =
  String.concat ";"
    (List.map
       (fun (e : Profiler.Replay.event) -> Printf.sprintf "%Ld:%d:%Ld" e.at e.nr e.ret)
       evs)

(* Full comparison: the engine contract (timing included). *)
let diff_full a b =
  if a.o_outcome <> b.o_outcome then
    Some (Printf.sprintf "outcome %s vs %s" a.o_outcome b.o_outcome)
  else if a.o_ret <> b.o_ret then
    Some (Printf.sprintf "ret %Ld vs %Ld" a.o_ret b.o_ret)
  else if a.o_cycles <> b.o_cycles then
    Some (Printf.sprintf "cycles %Ld vs %Ld" a.o_cycles b.o_cycles)
  else if a.o_state <> b.o_state then
    Some (Printf.sprintf "final state %s vs %s" a.o_state b.o_state)
  else if events a <> events b then
    Some
      (Printf.sprintf "transcript [%s] vs [%s]" (events_brief (events a))
         (events_brief (events b)))
  else if a.o_hypercalls <> b.o_hypercalls || a.o_denied <> b.o_denied then
    Some
      (Printf.sprintf "hc/denied %d/%d vs %d/%d" a.o_hypercalls a.o_denied
         b.o_hypercalls b.o_denied)
  else None

(* Guest-visible comparison: the restore contract. [`Cow] restore
   charges different (cheaper) reset costs than [`Memcpy] by design, so
   cycle stamps are excluded; results, final state and the un-stamped
   hypercall sequence must match. *)
let diff_visible a b =
  let strip o =
    List.map (fun (e : Profiler.Replay.event) -> (e.nr, e.args, e.ret)) (events o)
  in
  if a.o_outcome <> b.o_outcome then
    Some (Printf.sprintf "outcome %s vs %s" a.o_outcome b.o_outcome)
  else if a.o_ret <> b.o_ret then
    Some (Printf.sprintf "ret %Ld vs %Ld" a.o_ret b.o_ret)
  else if a.o_state <> b.o_state then
    Some (Printf.sprintf "final state %s vs %s" a.o_state b.o_state)
  else if strip a <> strip b then
    Some "hypercall sequence (nr/args/ret) differs"
  else if a.o_denied <> b.o_denied then
    Some (Printf.sprintf "denied %d vs %d" a.o_denied b.o_denied)
  else None

(* ------------------------------------------------------------------ *)
(* Canary arms (harness-only planted bugs)                             *)
(* ------------------------------------------------------------------ *)

(* Raw-CPU execution with a null hypervisor (out -> r0 := 0, in -> a
   constant), bounded resumes. [buggy_shifts] emulates the reverted
   shift-count guard: a count at or beyond the mode width produces 0
   (Sar of a negative value saturates to -1) instead of using the
   masked count. The emulation is a step hook that schedules a
   destination-register fixup applied before the next instruction. *)
let raw_exec ?(buggy_shifts = false) (case : Corpus.case) =
  let mem = Vm.Memory.create ~size:(Corpus.mem_size_for case.code) in
  Vm.Memory.write_bytes mem ~off:Wasp.Layout.image_base
    (Bytes.of_string case.code);
  let clock = Cycles.Clock.create () in
  let cpu = Vm.Cpu.create ~mem ~mode:case.mode ~clock in
  Vm.Cpu.set_pc cpu Wasp.Layout.image_base;
  Vm.Cpu.set_sp cpu Wasp.Layout.stack_top;
  let pending = ref None in
  if buggy_shifts then
    Vm.Cpu.set_step_hook cpu (fun ~pc:_ ~instr ~cost:_ ->
        (match !pending with
        | Some (rd, v) -> Vm.Cpu.set_reg cpu rd v
        | None -> ());
        pending := None;
        match instr with
        | Instr.Bin (((Instr.Shl | Instr.Shr | Instr.Sar) as op), rd, src) ->
            let count =
              match src with
              | Instr.Reg r -> Vm.Cpu.get_reg cpu r
              | Instr.Imm i -> i
            in
            let width = Int64.of_int (Vm.Modes.width_bits case.mode) in
            if Int64.unsigned_compare count width >= 0 then
              let v =
                match op with
                | Instr.Sar when Int64.compare (Vm.Cpu.get_reg cpu rd) 0L < 0
                  ->
                    -1L
                | _ -> 0L
              in
              pending := Some (rd, Vm.Modes.mask case.mode v)
        | _ -> ());
  let fuel = min case.fuel 100_000 in
  let rec go budget =
    let left = fuel - Int64.to_int (Vm.Cpu.instructions_retired cpu) in
    if left <= 0 then Vm.Cpu.Out_of_fuel
    else
      match Vm.Cpu.run ~fuel:left cpu with
      | Vm.Cpu.Io_out _ when budget > 0 ->
          Vm.Cpu.set_reg cpu 0 0L;
          go (budget - 1)
      | Vm.Cpu.Io_in { reg; _ } when budget > 0 ->
          Vm.Cpu.set_reg cpu reg 0x5A5AL;
          go (budget - 1)
      | e -> e
  in
  let e = go 64 in
  (match !pending with Some (rd, v) -> Vm.Cpu.set_reg cpu rd v | None -> ());
  Vm.Cpu.clear_step_hook cpu;
  ( Format.asprintf "%a" Vm.Cpu.pp_exit e,
    Array.init Instr.num_regs (Vm.Cpu.get_reg cpu),
    Digest.to_hex (Digest.bytes (Vm.Memory.snapshot mem)) )

let shift_mask_canary case =
  match (raw_exec case, raw_exec ~buggy_shifts:true case) with
  | (e1, r1, m1), (e2, r2, m2) ->
      if e1 <> e2 then Some (Printf.sprintf "raw exit %s vs buggy %s" e1 e2)
      else if r1 <> r2 then begin
        let i = ref 0 in
        Array.iteri (fun j v -> if v <> r2.(j) && !i = 0 then i := j + 1) r1;
        let j = !i - 1 in
        Some (Printf.sprintf "r%d %Ld vs buggy %Ld" j r1.(j) r2.(j))
      end
      else if m1 <> m2 then Some "raw memory digest differs under buggy shifts"
      else None
  | exception e -> Some ("canary arm crashed: " ^ Printexc.to_string e)

(* The cycle-skew canary: pretend the translated engine mis-charges one
   cycle on long-running guests. *)
let skew_obs obs =
  if Int64.compare obs.o_cycles 1_000L > 0 then
    { obs with o_cycles = Int64.add obs.o_cycles 1L }
  else obs

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* The differential ladder below the canonical arm; first divergence
   wins. *)
let differential ?canary canonical (case : Corpus.case) =
  match run_arm ~translate:true case with
  | Crash d -> Some (Host_exception, "translated arm: " ^ d)
  | Obs o -> (
      let translated =
        match canary with Some Cycle_skew -> skew_obs o | _ -> o
      in
      match diff_full canonical translated with
      | Some d ->
          let cls =
            match canary with
            | Some Cycle_skew -> Canary_divergence
            | _ -> Engine_divergence
          in
          Some (cls, "interpreter vs translator: " ^ d)
      | None -> (
          let restore reset =
            run_arm ~translate:false ~reset ~runs:2 ~snapshot_key:"fuzz" case
          in
          match (restore `Memcpy, restore `Cow) with
          | Crash d, _ -> Some (Host_exception, "memcpy-restore arm: " ^ d)
          | _, Crash d -> Some (Host_exception, "cow-restore arm: " ^ d)
          | Obs eager, Obs cow -> (
              match diff_visible eager cow with
              | Some d -> Some (Restore_divergence, "memcpy vs cow restore: " ^ d)
              | None -> (
                  (* the committed-fixture property: the canonical
                     recording, through its text, passes the replayer *)
                  let verdict =
                    match Profiler.Replay.of_string (Profiler.Replay.to_string canonical.o_recording) with
                    | Error d -> Error [ "own .vxr does not reparse: " ^ d ]
                    | Ok recording -> Replayer.replay ~translate:false recording
                  in
                  match verdict with
                  | Error ds -> Some (Replay_divergence, ".vxr replay: " ^ String.concat "; " ds)
                  | Ok () -> (
                      match canary with
                      | Some Shift_mask -> (
                          match shift_mask_canary case with
                          | Some d -> Some (Canary_divergence, "shift-mask canary: " ^ d)
                          | None -> None)
                      | _ -> None)))))

let classify ?canary (case : Corpus.case) : verdict =
  let probes =
    match Vtrace.Engine.of_string coverage_spec with
    | Ok e -> e
    | Error e -> failwith ("internal: bad coverage spec: " ^ e)
  in
  let profiler = Profiler.Profile.create () in
  let harvested = ref [] in
  let post w =
    harvested :=
      Coverage.kvm_features (Wasp.Runtime.kvm w)
      @ Coverage.flight_features (Wasp.Runtime.flight w)
  in
  (* The canonical arm: interpreter with every coverage surface
     attached. A crash here is a finding with no recording. *)
  match run_arm ~translate:false ~probes ~profiler ~post case with
  | Crash detail ->
      {
        features = [ "crash" ];
        recording = None;
        finding = Some (Host_exception, detail);
      }
  | Obs canonical ->
      let features =
        Coverage.outcome_features ~outcome:canonical.o_outcome
          ~ret:canonical.o_ret ~hypercalls:canonical.o_hypercalls
          ~denied:canonical.o_denied
        @ !harvested
        @ Coverage.vtrace_features probes
        @ Coverage.opcode_features profiler
      in
      let finding = differential ?canary canonical case in
      (* the canonical arm's own recording is the .vxr a fixture carries *)
      { features; recording = Some canonical.o_recording; finding }
