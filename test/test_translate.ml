(* Differential tests for the superblock translation cache: the
   translator must be observationally identical to the interpreter —
   same final registers and memory, same retired count, same exit
   reason, and bit-for-bit identical simulated cycles — across random
   programs, self-modifying code, and CoW-restored invocations. *)

let origin = 0x8000

(* ------------------------------------------------------------------ *)
(* Differential harness                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  exit : string;
  regs : int64 array;
  mem : bytes;
  retired : int64;
  cycles : int64;
}

let exit_str (e : Vm.Cpu.exit_reason) = Format.asprintf "%a" Vm.Cpu.pp_exit e

(* Run [code] to completion under one engine, resuming deterministically
   through a bounded number of I/O exits ([in] deposits a constant). *)
let exec ?(clock_start = 0L) ?(at = origin) engine ~mode ~mem_size code =
  let mem = Vm.Memory.create ~size:mem_size in
  Vm.Memory.write_bytes mem ~off:at code;
  let clock = Cycles.Clock.create () in
  Cycles.Clock.advance clock clock_start;
  let cpu = Vm.Cpu.create ~mem ~mode ~clock in
  Vm.Cpu.set_pc cpu at;
  Vm.Cpu.set_sp cpu 0x8000;
  let step =
    match engine with
    | `Interp -> fun fuel -> Vm.Cpu.run ~fuel cpu
    | `Translate ->
        let tr = Vm.Translate.create cpu in
        fun fuel -> Vm.Translate.run ~fuel tr
  in
  let fuel = 50_000 in
  let rec go budget =
    let left = fuel - Int64.to_int (Vm.Cpu.instructions_retired cpu) in
    if left <= 0 then Vm.Cpu.Out_of_fuel
    else
      match step left with
      | Vm.Cpu.Io_out _ when budget > 0 -> go (budget - 1)
      | Vm.Cpu.Io_in { reg; _ } when budget > 0 ->
          Vm.Cpu.set_reg cpu reg 0x5A5AL;
          go (budget - 1)
      | e -> e
  in
  let e = go 32 in
  {
    exit = exit_str e;
    regs = Array.init Instr.num_regs (Vm.Cpu.get_reg cpu);
    mem = Vm.Memory.snapshot mem;
    retired = Vm.Cpu.instructions_retired cpu;
    cycles = Cycles.Clock.now clock;
  }

let same a b =
  a.exit = b.exit && a.retired = b.retired && a.cycles = b.cycles && a.regs = b.regs
  && Bytes.equal a.mem b.mem

let check_same name a b =
  Alcotest.(check string) (name ^ ": exit") a.exit b.exit;
  Alcotest.(check int64) (name ^ ": retired") a.retired b.retired;
  Alcotest.(check int64) (name ^ ": cycles") a.cycles b.cycles;
  Array.iteri
    (fun i v -> Alcotest.(check int64) (Printf.sprintf "%s: r%d" name i) v b.regs.(i))
    a.regs;
  Alcotest.(check bool) (name ^ ": memory") true (Bytes.equal a.mem b.mem)

let both ?(mode = Vm.Modes.Long) ?(mem_size = 64 * 1024) ?at name code =
  let i = exec ?at `Interp ~mode ~mem_size code in
  let t = exec ?at `Translate ~mode ~mem_size code in
  check_same name i t;
  (i, t)

(* ------------------------------------------------------------------ *)
(* Random-program fuzz (generators mirror test_isa's)                   *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck.Gen.int_range 0 (Instr.num_regs - 1)

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Instr.Reg r) gen_reg;
        map (fun i -> Instr.Imm i) (map Int64.of_int int);
      ])

let gen_binop =
  QCheck.Gen.oneofl [ Instr.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]

let gen_cond = QCheck.Gen.oneofl [ Instr.Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]
let gen_width = QCheck.Gen.oneofl [ Instr.W8; W16; W32; W64 ]
let gen_addr = QCheck.Gen.int_range 0 0xFFFFFF
let gen_disp = QCheck.Gen.int_range (-4096) 4096
let gen_port = QCheck.Gen.int_range 0 255

let gen_instr : Instr.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        return Instr.Hlt;
        return Instr.Nop;
        return Instr.Ret;
        map2 (fun r o -> Instr.Mov (r, o)) gen_reg gen_operand;
        map3 (fun op r o -> Instr.Bin (op, r, o)) gen_binop gen_reg gen_operand;
        map (fun r -> Instr.Neg r) gen_reg;
        map (fun r -> Instr.Not r) gen_reg;
        map2 (fun r o -> Instr.Cmp (r, o)) gen_reg gen_operand;
        map (fun a -> Instr.Jmp a) gen_addr;
        map2 (fun c a -> Instr.Jcc (c, a)) gen_cond gen_addr;
        map (fun a -> Instr.Call a) gen_addr;
        map (fun r -> Instr.Callr r) gen_reg;
        map (fun o -> Instr.Push o) gen_operand;
        map (fun r -> Instr.Pop r) gen_reg;
        (let* w = gen_width and* rd = gen_reg and* rb = gen_reg and* d = gen_disp in
         return (Instr.Load (w, rd, rb, d)));
        (let* w = gen_width and* rb = gen_reg and* d = gen_disp and* o = gen_operand in
         return (Instr.Store (w, rb, d, o)));
        map3 (fun rd rb d -> Instr.Lea (rd, rb, d)) gen_reg gen_reg gen_disp;
        map2 (fun p o -> Instr.Out (p, o)) gen_port gen_operand;
        map2 (fun r p -> Instr.In (r, p)) gen_reg gen_port;
        map (fun r -> Instr.Rdtsc r) gen_reg;
      ])

let gen_mode = QCheck.Gen.oneofl [ Vm.Modes.Real; Vm.Modes.Protected; Vm.Modes.Long ]

let print_program (mode, instrs) =
  Printf.sprintf "%s: %s" (Vm.Modes.to_string mode)
    (String.concat "; " (List.map Instr.to_string instrs))

(* Both clocks start at the same random offset below 2^50, so [rdtsc]
   under the real and protected masks reads high clock bits. *)
let prop_differential =
  QCheck.Test.make ~name:"random programs agree across engines" ~count:400
    (QCheck.make
       ~print:(fun (start, p) -> Printf.sprintf "clock %d, %s" start (print_program p))
       QCheck.Gen.(
         pair (int_range 0 (1 lsl 50)) (pair gen_mode (list_size (int_range 1 60) gen_instr))))
    (fun (start, (mode, instrs)) ->
      let code = Encoding.encode_program instrs in
      let mem_size = 64 * 1024 and clock_start = Int64.of_int start in
      same
        (exec ~clock_start `Interp ~mode ~mem_size code)
        (exec ~clock_start `Translate ~mode ~mem_size code))

(* Self-modifying loops: each iteration pokes bytes of the program's own
   code, either the byte already there (reloaded at run time, so page
   versions go stale over unchanged bytes) or a random one. Body
   instructions use r0-r9; r10/r11 address and carry the poke, r12
   counts iterations. *)
let gen_smc_loop =
  let open QCheck.Gen in
  let reg = int_range 0 9 in
  let operand =
    oneof [ map (fun r -> Instr.Reg r) reg; map (fun i -> Instr.Imm (Int64.of_int i)) int ]
  in
  let plain =
    oneof
      [
        return Instr.Nop;
        map2 (fun r o -> Instr.Mov (r, o)) reg operand;
        map3 (fun op r o -> Instr.Bin (op, r, o)) gen_binop reg operand;
        map (fun r -> Instr.Neg r) reg;
        map2 (fun r o -> Instr.Cmp (r, o)) reg operand;
        map3 (fun rd rb d -> Instr.Lea (rd, rb, d)) reg reg gen_disp;
        (let* w = gen_width and* rd = reg and* rb = reg and* d = gen_disp in
         return (Instr.Load (w, rd, rb, d)));
      ]
  in
  let op =
    frequency
      [
        (3, map (fun i -> `Plain i) plain);
        (2, map (fun k -> `Same k) nat);
        (1, map2 (fun k b -> `Rand (k, b)) nat (int_range 0 255));
      ]
  in
  triple gen_mode (int_range 1 8) (list_size (int_range 1 12) op)

let smc_loop_program (_, iters, ops) =
  let open Instr in
  let build code_len =
    let target k = Imm (Int64.of_int (origin + (k mod code_len))) in
    let head = Mov (12, Imm (Int64.of_int iters)) in
    let top = origin + Encoding.encoded_size head in
    let body =
      List.concat_map
        (function
          | `Plain i -> [ i ]
          | `Same k -> [ Mov (10, target k); Load (W8, 11, 10, 0); Store (W8, 10, 0, Reg 11) ]
          | `Rand (k, b) -> [ Mov (10, target k); Store (W8, 10, 0, Imm (Int64.of_int b)) ])
        ops
    in
    (head :: body) @ [ Bin (Sub, 12, Imm 1L); Cmp (12, Imm 0L); Jcc (Gt, top); Hlt ]
  in
  (* immediates encode at a fixed width, so the length does not depend
     on the poke targets *)
  let code_len = Bytes.length (Encoding.encode_program (build 1)) in
  build code_len

let prop_smc_loops =
  QCheck.Test.make ~name:"self-modifying loops agree across engines" ~count:300
    (QCheck.make
       ~print:(fun ((mode, _, _) as p) -> print_program (mode, smc_loop_program p))
       gen_smc_loop)
    (fun ((mode, _, _) as p) ->
      let code = Encoding.encode_program (smc_loop_program p) in
      let mem_size = 64 * 1024 in
      same (exec `Interp ~mode ~mem_size code) (exec `Translate ~mode ~mem_size code))

(* ------------------------------------------------------------------ *)
(* Directed: self-modifying code                                        *)
(* ------------------------------------------------------------------ *)

let layout instrs =
  (* pc of each instruction when the program is loaded at [origin] *)
  let _, pcs =
    List.fold_left
      (fun (pc, acc) i -> (pc + Encoding.encoded_size i, pc :: acc))
      (origin, []) instrs
  in
  List.rev pcs

let test_smc_same_block () =
  (* the store overwrites the first byte of a later instruction in the
     *same* superblock with 0x00 (hlt); both engines must halt before
     the overwritten mov executes *)
  let open Instr in
  (* program shape: [mov r1, victim][st8 [r1], 0][mov r0, 1][hlt] *)
  let shape victim =
    [ Mov (1, Imm (Int64.of_int victim)); Store (W8, 1, 0, Imm 0L); Mov (0, Imm 1L); Hlt ]
  in
  (* the victim pc depends on the mov's encoded size, which depends on
     the victim value; one fixpoint round converges (sizes stabilize) *)
  let victim = List.nth (layout (shape 0)) 2 in
  let prog = shape victim in
  assert (List.nth (layout prog) 2 = victim);
  let i, _ = both "smc same block" (Encoding.encode_program prog) in
  Alcotest.(check string) "halts" "halt" i.exit;
  Alcotest.(check int64) "overwritten mov never executed" 0L i.regs.(0)

let test_smc_cross_block () =
  (* pass 1 translates the victim block; pass 2 patches its first
     instruction from another block. The stale superblock must be
     invalidated on re-entry. *)
  let open Instr in
  let build victim patch =
    [
      Cmp (2, Imm 1L);
      Jcc (Eq, patch);
      Mov (2, Imm 1L);
      Jmp victim;
      (* patch: *)
      Mov (1, Imm (Int64.of_int victim));
      Store (W8, 1, 0, Imm 0L);
      Jmp victim;
      (* victim: *)
      Mov (0, Imm 7L);
      Jmp origin;
    ]
  in
  (* iterate the layout to a fixpoint: label addresses feed immediate
     sizes feed label addresses *)
  let rec fix victim patch n =
    let pcs = layout (build victim patch) in
    let victim' = List.nth pcs 7 and patch' = List.nth pcs 4 in
    if (victim', patch') = (victim, patch) || n = 0 then build victim' patch'
    else fix victim' patch' (n - 1)
  in
  let prog = fix 0 0 8 in
  let i, t = both "smc cross block" (Encoding.encode_program prog) in
  Alcotest.(check string) "halts" "halt" i.exit;
  Alcotest.(check int64) "pass-1 victim ran" 7L i.regs.(0);
  ignore t

(* ------------------------------------------------------------------ *)
(* Directed: engine mechanics                                           *)
(* ------------------------------------------------------------------ *)

let make_cpu code =
  let mem = Vm.Memory.create ~size:(64 * 1024) in
  Vm.Memory.write_bytes mem ~off:origin code;
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
  Vm.Cpu.set_pc cpu origin;
  Vm.Cpu.set_sp cpu 0x8000;
  (cpu, mem)

let test_hook_falls_back_to_interpreter () =
  let open Instr in
  let code = Encoding.encode_program [ Mov (0, Imm 1L); Nop; Nop; Hlt ] in
  let cpu, _ = make_cpu code in
  let tr = Vm.Translate.create cpu in
  let hook_calls = ref 0 in
  Vm.Cpu.set_step_hook cpu (fun ~pc:_ ~instr:_ ~cost:_ -> incr hook_calls);
  (match Vm.Translate.run tr with
  | Vm.Cpu.Halt -> ()
  | other -> Alcotest.failf "expected halt, got %s" (exit_str other));
  Alcotest.(check int) "hook fired once per retired instruction" 4 !hook_calls;
  Alcotest.(check int64) "retired" 4L (Vm.Cpu.instructions_retired cpu);
  Alcotest.(check int) "counted as fallback" 1 (Vm.Translate.stats tr).hook_fallbacks;
  Alcotest.(check int) "nothing translated" 0 (Vm.Translate.stats tr).blocks_translated

let test_block_reuse_and_invalidation () =
  let open Instr in
  let code = Encoding.encode_program [ Mov (0, Imm 1L); Hlt ] in
  let cpu, mem = make_cpu code in
  let tr = Vm.Translate.create cpu in
  let run () =
    Vm.Cpu.set_pc cpu origin;
    match Vm.Translate.run tr with
    | Vm.Cpu.Halt -> ()
    | other -> Alcotest.failf "expected halt, got %s" (exit_str other)
  in
  run ();
  let s = Vm.Translate.stats tr in
  let after_first = s.blocks_translated in
  Alcotest.(check bool) "translated something" true (after_first > 0);
  run ();
  Alcotest.(check int) "second run reuses the cached block" after_first
    s.blocks_translated;
  (* rewriting a code byte with its own value bumps the page version but
     leaves the decoded bytes intact: the block is revalidated, not
     retranslated *)
  Vm.Memory.write_u8 mem origin (Vm.Memory.read_u8 mem origin);
  run ();
  Alcotest.(check int) "same-value write keeps the block" after_first s.blocks_translated;
  Alcotest.(check int) "no invalidation counted" 0 s.invalidations;
  (* changing a byte (the immediate 1 -> 2) must retranslate, and the new
     instruction must execute *)
  Vm.Memory.write_bytes mem ~off:origin (Encoding.encode_program [ Mov (0, Imm 2L); Hlt ]);
  run ();
  Alcotest.(check bool) "changed byte forces retranslation" true
    (s.blocks_translated > after_first);
  Alcotest.(check int) "invalidation counted" 1 s.invalidations;
  Alcotest.(check int64) "new instruction executed" 2L (Vm.Cpu.get_reg cpu 0);
  (* pool-style reset: blocks survive it. Restoring the same bytes
     revalidates every block without retranslating one... *)
  let restore prog =
    Vm.Memory.reset_zero mem;
    Vm.Memory.write_bytes mem ~off:origin (Encoding.encode_program prog);
    Vm.Cpu.set_reg cpu 0 0L
  in
  let before_reset = s.blocks_translated in
  restore [ Mov (0, Imm 2L); Hlt ];
  run ();
  Alcotest.(check int) "same bytes after reset: nothing retranslated" before_reset
    s.blocks_translated;
  Alcotest.(check int) "same bytes after reset: no invalidation" 1 s.invalidations;
  Alcotest.(check int64) "cached block still executes" 2L (Vm.Cpu.get_reg cpu 0);
  (* ...while different bytes at the same pc retranslate once and run *)
  restore [ Mov (0, Imm 3L); Hlt ];
  run ();
  Alcotest.(check int) "different bytes after reset retranslate" (before_reset + 1)
    s.blocks_translated;
  Alcotest.(check int) "one more invalidation" 2 s.invalidations;
  Alcotest.(check int64) "new instruction executed after reset" 3L (Vm.Cpu.get_reg cpu 0)

let test_data_on_code_page () =
  (* a loop fills a data area that shares its 4 KiB page with the loop's
     own code, as crt0's heap init does: every store bumps the code
     page's version, but no code byte changes, so each distinct block is
     translated once however many stores land beside it *)
  let open Instr in
  let n = 1000 and data = origin + 0x400 in
  let head = [ Mov (1, Imm (Int64.of_int data)); Mov (2, Imm (Int64.of_int n)) ] in
  let top = origin + List.fold_left (fun a i -> a + Encoding.encoded_size i) 0 head in
  let prog =
    head
    @ [
        Store (W8, 1, 0, Reg 2);
        Bin (Add, 1, Imm 1L);
        Bin (Sub, 2, Imm 1L);
        Cmp (2, Imm 0L);
        Jcc (Gt, top);
        Hlt;
      ]
  in
  let code = Encoding.encode_program prog in
  assert (data > origin + Bytes.length code && data + n <= origin + Vm.Memory.page_size);
  let i, _ = both "data on code page" code in
  Alcotest.(check string) "halts" "halt" i.exit;
  let cpu, _ = make_cpu code in
  let tr = Vm.Translate.create cpu in
  ignore (Vm.Translate.run tr);
  (* entry block, loop head, and the post-store resume point *)
  let s = Vm.Translate.stats tr in
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks translated for 3 distinct" s.blocks_translated)
    true (s.blocks_translated <= 3);
  Alcotest.(check int) "nothing invalidated" 0 s.invalidations

let test_real_mode_call_above_64k () =
  (* a real-mode pc can exceed 16 bits (the mode's limit is 1 MiB):
     call pushes the whole return address, unmasked, on both engines *)
  let open Instr in
  let at = 0x10000 in
  let call = Call (at + 16) in
  let ret_addr = at + Encoding.encoded_size call in
  let code = Bytes.make 17 '\000' in
  Bytes.blit (Encoding.encode_program [ call ]) 0 code 0 (ret_addr - at);
  let i, _ = both ~mode:Vm.Modes.Real ~mem_size:(128 * 1024) ~at "real call" code in
  Alcotest.(check string) "halts at the target" "halt" i.exit;
  Alcotest.(check int64) "return address on the stack" (Int64.of_int ret_addr)
    (Bytes.get_int64_le i.mem (0x8000 - 8))

let test_out_resumable_across_engines () =
  let open Instr in
  let prog = [ Mov (0, Imm 9L); Out (1, Reg 0); Mov (1, Reg 0); Hlt ] in
  let code = Encoding.encode_program prog in
  let drive run cpu =
    (match run () with
    | Vm.Cpu.Io_out { port = 1; value = 9L } -> ()
    | other -> Alcotest.failf "expected out exit, got %s" (exit_str other));
    Vm.Cpu.set_reg cpu 0 77L;
    (match run () with
    | Vm.Cpu.Halt -> ()
    | other -> Alcotest.failf "expected halt, got %s" (exit_str other));
    (Vm.Cpu.get_reg cpu 1, Vm.Cpu.instructions_retired cpu, Cycles.Clock.now (Vm.Cpu.clock cpu))
  in
  let cpu_i, _ = make_cpu code in
  let ri = drive (fun () -> Vm.Cpu.run cpu_i) cpu_i in
  let cpu_t, _ = make_cpu code in
  let tr = Vm.Translate.create cpu_t in
  let rt = drive (fun () -> Vm.Translate.run tr) cpu_t in
  Alcotest.(check (triple int64 int64 int64)) "resume agrees" ri rt

let test_fuel_exhaustion_matches () =
  let open Instr in
  (* tight infinite loop: both engines must stop at the same retired
     count, cycles and pc *)
  let code = Encoding.encode_program [ Jmp origin ] in
  let cpu_i, _ = make_cpu code in
  let ei = Vm.Cpu.run ~fuel:1000 cpu_i in
  let cpu_t, _ = make_cpu code in
  let tr = Vm.Translate.create cpu_t in
  let et = Vm.Translate.run ~fuel:1000 tr in
  Alcotest.(check string) "exit" (exit_str ei) (exit_str et);
  Alcotest.(check int64) "retired" (Vm.Cpu.instructions_retired cpu_i)
    (Vm.Cpu.instructions_retired cpu_t);
  Alcotest.(check int64) "cycles"
    (Cycles.Clock.now (Vm.Cpu.clock cpu_i))
    (Cycles.Clock.now (Vm.Cpu.clock cpu_t));
  Alcotest.(check int) "pc" (Vm.Cpu.pc cpu_i) (Vm.Cpu.pc cpu_t)

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                      *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated while [f] runs: deterministic for a fixed
   binary, so these bounds are exact gates, not timing. *)
let words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let fib_asm =
  {|
  call fib
  hlt
fib:
  cmp r0, 2
  jlt base
  push r0
  sub r0, 1
  call fib
  pop r1
  push r0
  mov r0, r1
  sub r0, 2
  call fib
  pop r1
  add r0, r1
  ret
base:
  ret
|}

let test_warm_fib_allocation () =
  let p = Asm.assemble_string ~origin fib_asm in
  let cpu, _ = make_cpu p.Asm.code in
  let tr = Vm.Translate.create cpu in
  let fib15 () =
    Vm.Cpu.set_pc cpu p.Asm.entry;
    Vm.Cpu.set_sp cpu 0x8000;
    Vm.Cpu.set_reg cpu 0 15L;
    match Vm.Translate.run tr with
    | Vm.Cpu.Halt -> Alcotest.(check int64) "fib(15)" 610L (Vm.Cpu.get_reg cpu 0)
    | other -> Alcotest.failf "expected halt, got %s" (exit_str other)
  in
  fib15 ();
  let before = Vm.Cpu.instructions_retired cpu in
  let words = words_during fib15 in
  let retired = Int64.to_float (Int64.sub (Vm.Cpu.instructions_retired cpu) before) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %.0f instructions (<= 1 per instruction)" words retired)
    true
    (words <= retired)

let test_counters_allocation_free () =
  let cpu, _ = make_cpu Bytes.empty in
  let clock = Vm.Cpu.clock cpu in
  let words =
    words_during (fun () ->
        for _ = 1 to 100_000 do
          Cycles.Clock.advance_int clock 3;
          Vm.Cpu.add_retired cpu 1
        done)
  in
  Alcotest.(check (float 0.)) "words over 10^5 calls" 0. words;
  Alcotest.(check int64) "cycles" 300_000L (Cycles.Clock.now clock);
  Alcotest.(check int64) "retired" 100_000L (Vm.Cpu.instructions_retired cpu)

(* ------------------------------------------------------------------ *)
(* Runtime level: CoW restore between invocations                       *)
(* ------------------------------------------------------------------ *)

(* mirrors test_wasp's snapshot image: init loop, snapshot hypercall,
   then argument-dependent work *)
let snap_image =
  Wasp.Image.of_asm_string ~name:"snap-translate"
    {|
  mov r10, 0
init:
  add r10, 1
  cmp r10, 5000
  jlt init
  mov r0, 6        ; snapshot hypercall
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r10
  mov r0, 0
  out 1, r0
|}

let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ]

let test_cow_restore_differential () =
  (* `Cow reset rewrites dirtied pages between invocations while the
     shell's translation cache persists: results and cycle counts must
     match the interpreter exactly across all three invocations *)
  let runs translate =
    let w = Wasp.Runtime.create ~reset:`Cow ~translate () in
    List.map
      (fun arg ->
        let r =
          Wasp.Runtime.run w snap_image ~policy:snap_policy ~snapshot_key:"cowtr"
            ~args:[ arg ] ()
        in
        (r.Wasp.Runtime.return_value, r.Wasp.Runtime.cycles, r.Wasp.Runtime.from_snapshot))
      [ 1L; 2L; 3L ]
  in
  let translated = runs true and interpreted = runs false in
  List.iteri
    (fun i ((rv_t, cyc_t, snap_t), (rv_i, cyc_i, snap_i)) ->
      Alcotest.(check int64) (Printf.sprintf "run %d return value" i) rv_i rv_t;
      Alcotest.(check int64) (Printf.sprintf "run %d cycles" i) cyc_i cyc_t;
      Alcotest.(check bool) (Printf.sprintf "run %d from_snapshot" i) snap_i snap_t)
    (List.combine translated interpreted);
  (* sanity: the workload actually exercised the snapshot path *)
  match translated with
  | [ (rv1, _, s1); (rv2, _, s2); _ ] ->
      Alcotest.(check int64) "first run computed" 5001L rv1;
      Alcotest.(check int64) "second run restored" 5002L rv2;
      Alcotest.(check bool) "snapshot flags" true ((not s1) && s2)
  | _ -> assert false

(* Same size and origin as [snap_image], different bytes from the loop
   body on: a shell recycled between the two keeps blocks at the same
   pcs that decode different instructions. *)
let other_snap_image =
  Wasp.Image.of_asm_string ~name:"snap-translate-other"
    {|
  mov r10, 0
init:
  add r10, 3
  cmp r10, 3000
  jlt init
  mov r0, 6        ; snapshot hypercall
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r1
  add r1, r10
  mov r0, 0
  out 1, r0
|}

let test_memcpy_alternating_images () =
  (* two images alternate through one pooled shell under the default
     `Memcpy reset; the shell's blocks survive every reset and are
     revalidated by their bytes. Results and cycles must match an
     interpreting runtime, and a repeat of the same image must translate
     nothing. *)
  let schedule =
    [ (snap_image, "a", 1L); (other_snap_image, "b", 2L); (snap_image, "a", 3L);
      (snap_image, "a", 4L); (other_snap_image, "b", 5L); (other_snap_image, "b", 6L) ]
  in
  let runs translate =
    let w = Wasp.Runtime.create ~reset:`Memcpy ~translate () in
    let stats = Kvmsim.Kvm.translation_stats (Wasp.Runtime.kvm w) in
    List.map
      (fun (image, key, arg) ->
        let before = stats.Vm.Translate.blocks_translated in
        let r = Wasp.Runtime.run w image ~policy:snap_policy ~snapshot_key:key ~args:[ arg ] () in
        ( (r.Wasp.Runtime.return_value, r.Wasp.Runtime.cycles, r.Wasp.Runtime.from_pool),
          stats.Vm.Translate.blocks_translated - before ))
      schedule
  in
  let translated = runs true and interpreted = runs false in
  List.iteri
    (fun i (((rv_t, cyc_t, pool_t), _), ((rv_i, cyc_i, pool_i), _)) ->
      Alcotest.(check int64) (Printf.sprintf "run %d return value" i) rv_i rv_t;
      Alcotest.(check int64) (Printf.sprintf "run %d cycles" i) cyc_i cyc_t;
      Alcotest.(check bool) (Printf.sprintf "run %d from_pool" i) pool_i pool_t)
    (List.combine translated interpreted);
  let values = List.map (fun ((rv, _, _), _) -> rv) translated in
  Alcotest.(check (list int64)) "each image computed" [ 5001L; 3004L; 5003L; 5004L; 3010L; 3012L ]
    values;
  let pooled = List.map (fun ((_, _, p), _) -> p) translated in
  Alcotest.(check (list bool)) "one recycled shell" [ false; true; true; true; true; true ] pooled;
  match List.map snd translated with
  | [ _; _; a_after_b; a_after_a; b_after_a; b_after_b ] ->
      Alcotest.(check bool) "changed bytes retranslate" true (a_after_b > 0 && b_after_a > 0);
      Alcotest.(check (pair int int)) "a repeated image translates nothing" (0, 0)
        (a_after_a, b_after_b)
  | _ -> assert false

let () =
  Alcotest.run "translate"
    [
      ( "differential",
        QCheck_alcotest.to_alcotest prop_differential
        :: QCheck_alcotest.to_alcotest prop_smc_loops
        :: [
             Alcotest.test_case "smc same block" `Quick test_smc_same_block;
             Alcotest.test_case "smc cross block" `Quick test_smc_cross_block;
             Alcotest.test_case "data on code page" `Quick test_data_on_code_page;
             Alcotest.test_case "real-mode call above 64 KiB" `Quick
               test_real_mode_call_above_64k;
             Alcotest.test_case "out resumable" `Quick test_out_resumable_across_engines;
             Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_matches;
           ] );
      ( "engine",
        [
          Alcotest.test_case "hook falls back" `Quick test_hook_falls_back_to_interpreter;
          Alcotest.test_case "reuse + invalidation" `Quick
            test_block_reuse_and_invalidation;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm fib(15) <= 1 word per instruction" `Quick
            test_warm_fib_allocation;
          Alcotest.test_case "clock and retired counters allocate nothing" `Quick
            test_counters_allocation_free;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "cow restore differential" `Quick
            test_cow_restore_differential;
          Alcotest.test_case "memcpy reset alternating images" `Quick
            test_memcpy_alternating_images;
        ] );
    ]
