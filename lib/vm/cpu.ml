type fault =
  | Memory_oob of { addr : int; size : int }
  | Page_fault of { addr : int }
  | Invalid_opcode of { addr : int; msg : string }
  | Division_by_zero of { addr : int }

type exit_reason =
  | Halt
  | Io_out of { port : int; value : int64 }
  | Io_in of { port : int; reg : Instr.reg }
  | Fault of fault
  | Out_of_fuel

let pp_fault ppf = function
  | Memory_oob { addr; size } -> Format.fprintf ppf "memory fault at 0x%x (%d bytes)" addr size
  | Page_fault { addr } -> Format.fprintf ppf "page fault at 0x%x" addr
  | Invalid_opcode { addr; msg } -> Format.fprintf ppf "invalid opcode at 0x%x: %s" addr msg
  | Division_by_zero { addr } -> Format.fprintf ppf "division by zero at 0x%x" addr

let pp_exit ppf = function
  | Halt -> Format.pp_print_string ppf "halt"
  | Io_out { port; value } -> Format.fprintf ppf "out(port=0x%x, value=%Ld)" port value
  | Io_in { port; reg } -> Format.fprintf ppf "in(port=0x%x, r%d)" port reg
  | Fault f -> Format.fprintf ppf "fault: %a" pp_fault f
  | Out_of_fuel -> Format.pp_print_string ppf "out of fuel"

(* The register file is one [Bytes]: register [r] is the native-endian
   int64 at byte offset [slot r], read and written with the
   bounds-checked primitives, so a register never exists as a boxed
   value on the hot path. One scratch slot follows the architectural
   registers: [pop] loads through it (so [pop sp] ends with the popped
   value, not the incremented sp) and immediates stage there for the
   shared store/push paths. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let slot r = r lsl 3
let scratch = slot Instr.num_regs

type t = {
  memory : Memory.t;
  mutable cpu_mode : Modes.t;
  clock : Cycles.Clock.t;
  regs : Bytes.t;
  mutable pc : int;
  mutable signed_cmp : int;
  mutable unsigned_cmp : int;
  mutable retired : int;
  mutable step_hook : (pc:int -> instr:Instr.t -> cost:int -> unit) option;
}

exception Vm_fault of fault

let create ~mem ~mode ~clock =
  {
    memory = mem;
    cpu_mode = mode;
    clock;
    regs = Bytes.make (scratch + 8) '\000';
    pc = 0;
    signed_cmp = 0;
    unsigned_cmp = 0;
    retired = 0;
    step_hook = None;
  }

let mem t = t.memory
let mode t = t.cpu_mode

(* every register write goes through here: values are invariantly
   mode-masked *)
let[@inline] set_slot t o v = set64 t.regs o (Int64.logand v (Modes.mask_bits t.cpu_mode))
let get_reg t r = get64 t.regs (slot r)
let set_reg t r v = set_slot t (slot r) v

let pc t = t.pc
let set_pc t pc = t.pc <- pc
let set_sp t sp = set_reg t Instr.sp (Int64.of_int sp)

let instructions_retired t = Int64.of_int t.retired

let set_step_hook t hook = t.step_hook <- Some hook
let clear_step_hook t = t.step_hook <- None

let reset t ~mode =
  t.cpu_mode <- mode;
  Bytes.fill t.regs 0 (Bytes.length t.regs) '\000';
  t.pc <- 0;
  t.signed_cmp <- 0;
  t.unsigned_cmp <- 0;
  t.retired <- 0

(* Address check: guest RAM bounds are enforced by Memory; the mode's
   architectural limit (1 MB real, 4 GB protected, 1 GB mapped in long
   mode) is enforced here, faulting like hardware would.

   Overflow-safe, mirroring [Memory.check]: [addr + size] wraps negative
   for a base register near [max_int], which would slip past the limit
   check and surface a host [Invalid_argument] instead of a guest fault.
   [limit - size] cannot wrap once [addr >= 0] and [size >= 0]. *)
let check_range t addr size =
  let limit = Modes.address_limit t.cpu_mode in
  if addr < 0 || addr > limit - size then begin
    match t.cpu_mode with
    | Modes.Long -> raise (Vm_fault (Page_fault { addr }))
    | Modes.Real | Modes.Protected -> raise (Vm_fault (Memory_oob { addr; size }))
  end

(* Loads and stores move values between guest pages and register slots
   directly; a fault leaves every register untouched. *)
let load t w o addr =
  check_range t addr (Instr.bytes_of_width w);
  match w with
  | Instr.W8 -> set_slot t o (Int64.of_int (Memory.read_u8 t.memory addr))
  | Instr.W16 -> set_slot t o (Int64.of_int (Memory.read_u16 t.memory addr))
  | Instr.W32 -> set_slot t o (Int64.of_int (Memory.read_u32 t.memory addr))
  | Instr.W64 ->
      Memory.read_u64_into t.memory addr t.regs o;
      set_slot t o (get64 t.regs o)

let store t w addr src o =
  check_range t addr (Instr.bytes_of_width w);
  match w with
  | Instr.W8 -> Memory.write_u8 t.memory addr (Int64.to_int (get64 src o) land 0xFF)
  | Instr.W16 -> Memory.write_u16 t.memory addr (Int64.to_int (get64 src o) land 0xFFFF)
  | Instr.W32 ->
      Memory.write_u32 t.memory addr (Int64.to_int (get64 src o) land 0xFFFFFFFF)
  | Instr.W64 -> Memory.write_u64_from t.memory addr src o

let sp_value t = Int64.to_int (get64 t.regs (slot Instr.sp))

let push t src o =
  let sp = sp_value t - 8 in
  store t Instr.W64 sp src o;
  set_slot t (slot Instr.sp) (Int64.of_int sp)

let pop t o =
  let sp = sp_value t in
  load t Instr.W64 scratch sp;
  set_slot t (slot Instr.sp) (Int64.of_int (sp + 8));
  set64 t.regs o (get64 t.regs scratch)

(* An immediate operand stages in the scratch slot; returns the
   operand's slot offset. *)
let operand_slot t : Instr.operand -> int = function
  | Reg r -> slot r
  | Imm i ->
      set_slot t scratch i;
      scratch

let operand_value t (src : Instr.operand) = get64 t.regs (operand_slot t src)

(* Hardware masks shift counts to the operand width: 0..31 outside long
   mode, 0..63 in it. A single 63 mask let real/protected guests observe
   counts 32..63 that a 32-bit machine reduces mod 32. *)
let shift_mask t =
  match t.cpu_mode with Modes.Real | Modes.Protected -> 31L | Modes.Long -> 63L

let eval_binop t op l r pc =
  let open Int64 in
  let sl = Modes.sext t.cpu_mode l and sr = Modes.sext t.cpu_mode r in
  match (op : Instr.binop) with
  | Add -> add l r
  | Sub -> sub l r
  | Mul -> mul l r
  | Div ->
      if sr = 0L then raise (Vm_fault (Division_by_zero { addr = pc })) else div sl sr
  | Rem ->
      if sr = 0L then raise (Vm_fault (Division_by_zero { addr = pc })) else rem sl sr
  | And -> logand l r
  | Or -> logor l r
  | Xor -> logxor l r
  | Shl -> shift_left l (to_int (logand r (shift_mask t)))
  | Shr -> shift_right_logical l (to_int (logand r (shift_mask t)))
  | Sar -> shift_right sl (to_int (logand r (shift_mask t)))

let eval_cond t : Instr.cond -> bool = function
  | Eq -> t.signed_cmp = 0
  | Ne -> t.signed_cmp <> 0
  | Lt -> t.signed_cmp < 0
  | Le -> t.signed_cmp <= 0
  | Gt -> t.signed_cmp > 0
  | Ge -> t.signed_cmp >= 0
  | Ult -> t.unsigned_cmp < 0
  | Ule -> t.unsigned_cmp <= 0
  | Ugt -> t.unsigned_cmp > 0
  | Uge -> t.unsigned_cmp >= 0

(* Indirect branch targets (callr/ret) are register values, already
   truncated to the mode width like every architectural register write;
   a 32-bit-mode guest with a stale high half lands at the masked
   address, it does not escape to a truncated host-int one. A long-mode
   value still exceeding the host int range clamps to the architectural
   limit so the next fetch faults there — the same fault [Jmp] to an
   out-of-range target takes. *)
let jump_slot t o =
  let v = get64 t.regs o in
  t.pc <-
    (if Int64.unsigned_compare v (Int64.of_int max_int) > 0 then
       Modes.address_limit t.cpu_mode
     else Int64.to_int v)

let fetch t =
  let read_byte a =
    check_range t a 1;
    Memory.read_u8 t.memory a
  in
  try Encoding.decode read_byte t.pc with
  | Encoding.Decode_error { addr; msg } -> raise (Vm_fault (Invalid_opcode { addr; msg }))

(* the return address is a pc, pushed unmasked: a real-mode pc can
   exceed 16 bits *)
let push_return t next =
  set64 t.regs scratch (Int64.of_int next);
  push t t.regs scratch

let step_inner t start_pc : exit_reason option =
  let instr, size = fetch t in
  let cost = Instr.cost instr in
  Cycles.Clock.advance_int t.clock cost;
  t.retired <- t.retired + 1;
  (match t.step_hook with Some h -> h ~pc:start_pc ~instr ~cost | None -> ());
  let next = start_pc + size in
  t.pc <- next;
  match instr with
  | Hlt -> Some Halt
  | Nop -> None
  | Mov (rd, src) ->
      set_reg t rd (operand_value t src);
      None
  | Bin (op, rd, src) ->
      set_reg t rd (eval_binop t op (get_reg t rd) (operand_value t src) start_pc);
      None
  | Neg rd ->
      set_reg t rd (Int64.neg (Modes.sext t.cpu_mode (get_reg t rd)));
      None
  | Not rd ->
      set_reg t rd (Int64.lognot (get_reg t rd));
      None
  | Cmp (r, src) ->
      let l = get_reg t r and rv = operand_value t src in
      t.signed_cmp <- Int64.compare (Modes.sext t.cpu_mode l) (Modes.sext t.cpu_mode rv);
      t.unsigned_cmp <- Int64.unsigned_compare l rv;
      None
  | Jmp a ->
      t.pc <- a;
      None
  | Jcc (c, a) ->
      if eval_cond t c then t.pc <- a;
      None
  | Call a ->
      push_return t next;
      t.pc <- a;
      None
  | Callr r ->
      push_return t next;
      (* read the register after the push: callr through sp must see the
         post-push stack pointer, exactly like hardware *)
      jump_slot t (slot r);
      None
  | Ret ->
      pop t scratch;
      jump_slot t scratch;
      None
  | Push src ->
      push t t.regs (operand_slot t src);
      None
  | Pop rd ->
      pop t (slot rd);
      None
  | Load (w, rd, rb, d) ->
      load t w (slot rd) (Int64.to_int (get_reg t rb) + d);
      None
  | Store (w, rb, d, src) ->
      let addr = Int64.to_int (get_reg t rb) + d in
      store t w addr t.regs (operand_slot t src);
      None
  | Lea (rd, rb, d) ->
      set_reg t rd (Int64.add (get_reg t rb) (Int64.of_int d));
      None
  | Out (port, src) -> Some (Io_out { port; value = operand_value t src })
  | In (rd, port) -> Some (Io_in { port; reg = rd })
  | Rdtsc rd ->
      set_reg t rd (Cycles.Clock.now t.clock);
      None

(* On a fault the PC is rewound to the faulting instruction so the
   hypervisor's post-mortem (flight recorder) reports where the guest
   died, like a real #PF pushing the faulting RIP. *)
let step t : exit_reason option =
  let start_pc = t.pc in
  try step_inner t start_pc with
  | Vm_fault _ as e ->
      t.pc <- start_pc;
      raise e
  | Memory.Fault _ as e ->
      t.pc <- start_pc;
      raise e

let run ?(fuel = 200_000_000) t =
  let remaining = ref fuel in
  let rec loop () =
    if !remaining <= 0 then Out_of_fuel
    else begin
      decr remaining;
      match step t with None -> loop () | Some exit -> exit
    end
  in
  try loop () with Vm_fault f -> Fault f | Memory.Fault { addr; size } -> Fault (Memory_oob { addr; size })

(* ------------------------------------------------------------------ *)
(* Translator support (see translate.ml)                               *)
(* ------------------------------------------------------------------ *)

let clock t = t.clock
let regs t = t.regs
let has_step_hook t = t.step_hook <> None

let set_cmp t ~signed ~unsigned =
  t.signed_cmp <- signed;
  t.unsigned_cmp <- unsigned

let add_retired t n = t.retired <- t.retired + n

(* Decode one instruction at [pc] without perturbing machine state:
   faults during the fetch (out-of-range pc, truncated or invalid
   encoding) yield [None] so the translator can end the superblock there
   and leave the faulting fetch to the interpreter, which reports it
   exactly as a per-step fetch would. *)
let try_fetch t pc =
  let saved = t.pc in
  t.pc <- pc;
  let r = try Some (fetch t) with Vm_fault _ | Memory.Fault _ -> None in
  t.pc <- saved;
  r
