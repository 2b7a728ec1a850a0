(* Decode-once superblock translation for the vx CPU.

   The interpreter re-decodes byte-encoded instructions on every step;
   at scale (bench sweeps, fleet loadgen, fuzzing) that decode dominates
   wall-clock while contributing nothing to the simulation. This layer
   decodes each basic block once into a *superblock*: an OCaml closure
   chain with one direct-threaded continuation per instruction, chained
   on fallthrough and static branch targets. Blocks are keyed by
   (pc, cpu_mode). The memory epoch and page content versions in Memory
   are a fast filter; a block they mark stale (after a store, a pool
   reset or a snapshot restore) is revalidated against the bytes it
   decoded, so only changed bytes cost a retranslation. Blocks outlive
   pool resets: a recycled shell rerunning the same image retranslates
   nothing.

   Running a cached block allocates nothing: registers live in the
   CPU's Bytes register file and every operand is an int64 slot, so no
   value is boxed between guest pages and registers (docs/translation.md,
   "Register file and allocation").

   The timing model is untouched: every translated instruction charges
   its exact Instr.cost, bumps retired, and honors fuel. Cycle and
   retired charges are batched in plain ints and committed to the
   Clock/CPU at every point a host observer could look:

     - VM exits (hlt/out/in), Rdtsc, and the interpreter fallback;
     - before every guest memory *write* — a store can break a CoW page,
       and the EPT fault hook reads Clock.now and Cpu.pc mid-write, so
       the clock and pc must be architecturally exact there;
     - in the dispatcher's fault handler (reads/pops fault lazily).

   Simulated cycle counts are therefore bit-for-bit identical to the
   interpreter's, which is what keeps the measurement methodology (and
   .vxr replay) honest while wall-clock throughput rises an order of
   magnitude.

   When a step hook is installed (the profiler), runs fall back to the
   interpreter: the hook's contract is one call per retired instruction
   at an exact pc/cost, which batching would break. Documented in
   docs/translation.md and locked by tests. *)

type stats = {
  mutable blocks_translated : int;
  mutable dispatches : int;
  mutable invalidations : int;
  mutable hook_fallbacks : int;
}

(* A chain slot caches the resolved target block of a static edge
   (fallthrough, jmp, call, taken jcc) so steady-state control transfer
   is a validity check plus a tail call, not a table lookup. *)
type slot = { mutable s_blk : block option }

and block = {
  mutable b_epoch : int;  (* Memory.epoch when the bytes were last known equal *)
  b_pc : int;             (* entry pc *)
  b_code : string;        (* the bytes decoded, [b_pc, end pc) *)
  b_pages : int array;    (* pages those bytes span *)
  b_vers : int array;
      (* their content versions at that point; restamped in place with
         [b_epoch] by [lookup], and read by the block's own write checks *)
  b_exec : unit -> Cpu.exit_reason option;
      (* [Some exit] = VM exit; [None] = control left the chain
         (indirect branch, a store to the block's own pages, undecodable
         pc): re-dispatch at the CPU's pc. *)
}

type t = {
  cpu : Cpu.t;
  mem : Memory.t;
  clock : Cycles.Clock.t;
  table : (int, block) Hashtbl.t;
  mutable cyc : int;      (* cycles charged but not yet committed *)
  mutable steps : int;    (* instructions retired but not yet committed *)
  mutable fuel : int;
  mutable cur_pc : int;   (* start pc of the instruction in flight *)
  mutable block_hook : (pc:int -> unit) option;
  stats : stats;
}

let new_stats () =
  { blocks_translated = 0; dispatches = 0; invalidations = 0; hook_fallbacks = 0 }

let create ?(stats = new_stats ()) cpu =
  {
    cpu;
    mem = Cpu.mem cpu;
    clock = Cpu.clock cpu;
    table = Hashtbl.create 64;
    cyc = 0;
    steps = 0;
    fuel = 0;
    cur_pc = 0;
    block_hook = None;
    stats;
  }

let stats t = t.stats
let set_block_hook t h = t.block_hook <- h

(* Commit batched charges. Idempotent; called at every observation
   point. After this, Clock.now and instructions_retired read exactly
   what the interpreter would have accumulated. *)
let commit tr =
  if tr.cyc <> 0 then begin
    Cycles.Clock.advance_int tr.clock tr.cyc;
    tr.cyc <- 0
  end;
  if tr.steps <> 0 then begin
    Cpu.add_retired tr.cpu tr.steps;
    tr.steps <- 0
  end

let mode_index = function Modes.Real -> 0 | Modes.Protected -> 1 | Modes.Long -> 2
let key_of pc mode = (pc lsl 2) lor mode_index mode

(* Superblocks stop at 128 instructions; longer straight-line runs chain
   through a synthetic fallthrough edge. *)
let max_block = 128

let rec pages_current mem pages vers i =
  i >= Array.length pages
  || Memory.page_version mem (Array.unsafe_get pages i) = Array.unsafe_get vers i
     && pages_current mem pages vers (i + 1)

let block_valid tr b =
  b.b_epoch = Memory.epoch tr.mem && pages_current tr.mem b.b_pages b.b_vers 0

(* Epoch and versions are only a filter: a store anywhere on a code
   page bumps them, a pool reset bumps the epoch, but the block stays
   correct as long as its own bytes are unchanged. Data sharing a page
   with code (crt0's heap init loop) then costs a byte compare per
   block, and a reset shell restoring the same image one compare per
   block it reenters, not a retranslation. *)
let revalidate tr b =
  if Memory.equal_string tr.mem ~off:b.b_pc b.b_code then begin
    b.b_epoch <- Memory.epoch tr.mem;
    for i = 0 to Array.length b.b_pages - 1 do
      Array.unsafe_set b.b_vers i (Memory.page_version tr.mem (Array.unsafe_get b.b_pages i))
    done;
    true
  end
  else false

(* Sign-extend a mode-width value: [s] is [Modes.sext_shift]. *)
let sx s v = Int64.shift_right (Int64.shift_left v s) s

(* An operand is an int64 slot: a register in the register file, or
   this private 8-byte buffer holding an immediate. Reading either is
   one unboxed load. *)
let imm_slot v =
  let b = Bytes.create 8 in
  Cpu.set64 b 0 v;
  (b, 0)

let rec lookup tr pc =
  let key = key_of pc (Cpu.mode tr.cpu) in
  match Hashtbl.find tr.table key with
  | b when block_valid tr b || revalidate tr b -> b
  | _ ->
      tr.stats.invalidations <- tr.stats.invalidations + 1;
      Hashtbl.remove tr.table key;
      let b = translate tr pc in
      Hashtbl.replace tr.table key b;
      b
  | exception Not_found ->
      let b = translate tr pc in
      Hashtbl.replace tr.table key b;
      b

and translate tr pc0 =
  let cpu = tr.cpu in
  let mem = tr.mem in
  let mode = Cpu.mode cpu in
  let regs = Cpu.regs cpu in
  (* Pass 1: decode the block once. Stops at control flow, VM exits, an
     undecodable pc, or the length cap. *)
  let rec scan pc n acc =
    if n >= max_block then (List.rev acc, `Fall pc)
    else
      match Cpu.try_fetch cpu pc with
      | None -> (List.rev acc, `Bad pc)
      | Some ((instr : Instr.t), size) -> (
          let acc = (pc, instr, size) :: acc in
          match instr with
          | Hlt | Out _ | In _ | Jmp _ | Call _ | Callr _ | Ret ->
              (List.rev acc, `Stop)
          | _ -> scan (pc + size) (n + 1) acc)
  in
  let decoded, tail = scan pc0 0 [] in
  let body, term =
    match tail with
    | `Stop -> (
        match List.rev decoded with
        | last :: rest -> (List.rev rest, `Term last)
        | [] -> assert false)
    | (`Fall _ | `Bad _) as k -> (decoded, k)
  in
  let end_pc =
    match term with `Term (pc, _, size) -> pc + size | `Fall pc | `Bad pc -> pc
  in
  (* The decoded bytes and the pages they span. The versions are
     rechecked after every in-block write and on every block entry; a
     mismatch mid-block aborts to the dispatcher, whose [lookup] decides
     from the bytes whether the block survives. *)
  let code, pages =
    if end_pc = pc0 then ("", [||]) (* [pc0] itself is undecodable *)
    else
      let first = pc0 / Memory.page_size in
      ( Bytes.unsafe_to_string (Memory.read_bytes mem ~off:pc0 ~len:(end_pc - pc0)),
        Array.init (((end_pc - 1) / Memory.page_size) - first + 1) (fun i -> first + i) )
  in
  let vers = Array.map (Memory.page_version mem) pages in
  let smc_ok () = pages_current mem pages vers 0 in
  let out_of_fuel start =
    commit tr;
    Cpu.set_pc cpu start;
    Some Cpu.Out_of_fuel
  in
  (* Resolve a static branch edge lazily, caching the target block. *)
  let goto target =
    let slot = { s_blk = None } in
    fun () ->
      (* chained static edges bypass the dispatch loop, so block-entry
         observers must also fire here *)
      (match tr.block_hook with None -> () | Some f -> f ~pc:target);
      match slot.s_blk with
      | Some b when block_valid tr b -> b.b_exec ()
      | _ ->
          let b = lookup tr target in
          slot.s_blk <- Some b;
          b.b_exec ()
  in
  let operand : Instr.operand -> Bytes.t * int = function
    | Reg r -> (regs, Cpu.slot r)
    | Imm i -> imm_slot (Modes.mask mode i)
  in
  (* Per-mode constants, so the per-instruction closures skip the mode
     dispatch: and-with-(-1) and shift-by-0 are identities in long
     mode. Values stay unboxed from register file to register file. *)
  let mask_c = Modes.mask_bits mode and sext_s = Modes.sext_shift mode in
  let count_m = match mode with Modes.Real | Modes.Protected -> 31 | Modes.Long -> 63 in
  (* Block terminator continuation. *)
  let tail_k : unit -> Cpu.exit_reason option =
    match term with
    | `Fall pc -> goto pc
    | `Bad pc ->
        (* Undecodable bytes: hand this single step to the interpreter,
           which charges/faults/reports exactly as a non-translated step
           would (and re-decodes fresh, so bytes later overwritten with
           valid code execute correctly too). *)
        fun () ->
          if tr.fuel <= 0 then out_of_fuel pc
          else begin
            tr.fuel <- tr.fuel - 1;
            commit tr;
            tr.cur_pc <- pc;
            Cpu.set_pc cpu pc;
            Cpu.step cpu
          end
    | `Term (start, instr, size) -> (
        let cost = Instr.cost instr in
        let next = start + size in
        let retire () =
          tr.cyc <- tr.cyc + cost;
          tr.steps <- tr.steps + 1
        in
        match instr with
        | Hlt ->
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                commit tr;
                Cpu.set_pc cpu next;
                Some Cpu.Halt
              end
        | Out (port, src) ->
            let sb, so = operand src in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                commit tr;
                Cpu.set_pc cpu next;
                Some (Cpu.Io_out { port; value = Cpu.get64 sb so })
              end
        | In (rd, port) ->
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                commit tr;
                Cpu.set_pc cpu next;
                Some (Cpu.Io_in { port; reg = rd })
              end
        | Jmp a ->
            let g = goto a in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                g ()
              end
        | Call a ->
            let g = goto a in
            let rb, ro = imm_slot (Int64.of_int next) in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                tr.cur_pc <- start;
                (* the push may CoW-fault: hook observes clock + pc *)
                commit tr;
                Cpu.set_pc cpu next;
                Cpu.push cpu rb ro;
                if smc_ok () then g ()
                else begin
                  Cpu.set_pc cpu a;
                  None
                end
              end
        | Callr r ->
            let rb, ro = imm_slot (Int64.of_int next) in
            let target = Cpu.slot r in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                tr.cur_pc <- start;
                commit tr;
                Cpu.set_pc cpu next;
                Cpu.push cpu rb ro;
                (* register read after the push (callr through sp) *)
                Cpu.jump_slot cpu target;
                None
              end
        | Ret ->
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                tr.cur_pc <- start;
                Cpu.pop cpu Cpu.scratch;
                Cpu.jump_slot cpu Cpu.scratch;
                None
              end
        | _ -> assert false (* only VM exits and branches terminate *))
  in
  (* Pass 2: compile body instructions back-to-front, each closure
     continuing into the next. *)
  let compile (start, (instr : Instr.t), size) next_k =
    let cost = Instr.cost instr in
    let next = start + size in
    (* register-only ops inline the batched cycles/retired bookkeeping to
       avoid a call per retired instruction; the memory-touching ops
       (which pay a guest memory access anyway) share it via [retire] *)
    let retire () =
      tr.cyc <- tr.cyc + cost;
      tr.steps <- tr.steps + 1
    in
    match instr with
    | Instr.Nop ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            next_k ()
          end
    | Mov (rd, src) ->
        (* operands are invariantly mode-masked: no re-mask *)
        let o = Cpu.slot rd and sb, so = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Cpu.set64 regs o (Cpu.get64 sb so);
            next_k ()
          end
    | Bin (op, rd, src) ->
        (* [Cpu.eval_binop]'s semantics: mode-masked inputs in, mask
           applied on writeback *)
        let o = Cpu.slot rd and sb, so = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            let l = Cpu.get64 regs o and r = Cpu.get64 sb so in
            let v =
              match op with
              | Instr.Add -> Int64.add l r
              | Sub -> Int64.sub l r
              | Mul -> Int64.mul l r
              | And -> Int64.logand l r
              | Or -> Int64.logor l r
              | Xor -> Int64.logxor l r
              | Shl -> Int64.shift_left l (Int64.to_int r land count_m)
              | Shr -> Int64.shift_right_logical l (Int64.to_int r land count_m)
              | Sar -> Int64.shift_right (sx sext_s l) (Int64.to_int r land count_m)
              | Div | Rem -> (
                  let d = sx sext_s r in
                  if d = 0L then begin
                    tr.cur_pc <- start;
                    raise (Cpu.Vm_fault (Division_by_zero { addr = start }))
                  end;
                  match op with
                  | Div -> Int64.div (sx sext_s l) d
                  | _ -> Int64.rem (sx sext_s l) d)
            in
            Cpu.set64 regs o (Int64.logand v mask_c);
            next_k ()
          end
    | Neg rd ->
        let o = Cpu.slot rd in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Cpu.set64 regs o (Int64.logand (Int64.neg (sx sext_s (Cpu.get64 regs o))) mask_c);
            next_k ()
          end
    | Not rd ->
        let o = Cpu.slot rd in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Cpu.set64 regs o (Int64.logand (Int64.lognot (Cpu.get64 regs o)) mask_c);
            next_k ()
          end
    | Cmp (r, src) ->
        let o = Cpu.slot r and sb, so = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            let l = Cpu.get64 regs o and rv = Cpu.get64 sb so in
            Cpu.set_cmp cpu
              ~signed:(Int64.compare (sx sext_s l) (sx sext_s rv))
              ~unsigned:(Int64.unsigned_compare l rv);
            next_k ()
          end
    | Jcc (c, a) ->
        let g = goto a in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            if Cpu.eval_cond cpu c then g () else next_k ()
          end
    | Push src ->
        let sb, so = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            commit tr;
            Cpu.set_pc cpu next;
            Cpu.push cpu sb so;
            if smc_ok () then next_k () else None
          end
    | Pop rd ->
        let o = Cpu.slot rd in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            Cpu.pop cpu o;
            next_k ()
          end
    | Load (w, rd, rb, d) ->
        let o = Cpu.slot rd and base = Cpu.slot rb in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            Cpu.load cpu w o (Int64.to_int (Cpu.get64 regs base) + d);
            next_k ()
          end
    | Store (w, rb, d, src) ->
        let base = Cpu.slot rb and sb, so = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            commit tr;
            Cpu.set_pc cpu next;
            Cpu.store cpu w (Int64.to_int (Cpu.get64 regs base) + d) sb so;
            (* the store may have rewritten this very block *)
            if smc_ok () then next_k () else None
          end
    | Lea (rd, rb, d) ->
        let o = Cpu.slot rd and base = Cpu.slot rb and dv = Int64.of_int d in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Cpu.set64 regs o (Int64.logand (Int64.add (Cpu.get64 regs base) dv) mask_c);
            next_k ()
          end
    | Rdtsc rd ->
        let o = Cpu.slot rd in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            (* rdtsc observes the clock including its own cost *)
            commit tr;
            Cpu.set64 regs o (Int64.logand (Cycles.Clock.now tr.clock) mask_c);
            next_k ()
          end
    | Hlt | Jmp _ | Call _ | Callr _ | Ret | Out _ | In _ ->
        assert false (* terminators, never in the body *)
  in
  let exec = List.fold_right compile body tail_k in
  tr.stats.blocks_translated <- tr.stats.blocks_translated + 1;
  {
    b_epoch = Memory.epoch mem;
    b_pc = pc0;
    b_code = code;
    b_pages = pages;
    b_vers = vers;
    b_exec = exec;
  }

let default_fuel = 200_000_000 (* matches Cpu.run *)

let run ?(fuel = default_fuel) tr =
  let cpu = tr.cpu in
  if Cpu.has_step_hook cpu then begin
    (* profiling: the step hook wants one call per retired instruction
       with an exact pc and clock, which block batching would break.
       Identical timing either way, so fall back to the interpreter. *)
    tr.stats.hook_fallbacks <- tr.stats.hook_fallbacks + 1;
    Cpu.run ~fuel cpu
  end
  else begin
    tr.fuel <- fuel;
    tr.cur_pc <- Cpu.pc cpu;
    let rec loop () =
      tr.stats.dispatches <- tr.stats.dispatches + 1;
      (match tr.block_hook with None -> () | Some f -> f ~pc:(Cpu.pc cpu));
      let b = lookup tr (Cpu.pc cpu) in
      match b.b_exec () with Some exit -> exit | None -> loop ()
    in
    match loop () with
    | exit -> exit (* every exit path committed already *)
    | exception Cpu.Vm_fault f ->
        commit tr;
        Cpu.set_pc cpu tr.cur_pc;
        Cpu.Fault f
    | exception Memory.Fault { addr; size } ->
        commit tr;
        Cpu.set_pc cpu tr.cur_pc;
        Cpu.Fault (Memory_oob { addr; size })
  end
