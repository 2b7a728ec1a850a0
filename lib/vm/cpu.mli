(** The vx virtual CPU.

    Executes encoded instructions fetched from guest memory, charging cycle
    costs against the virtual clock. A CPU never touches anything outside
    its {!Memory.t}: every fault and every [out] instruction becomes a VM
    exit that the hypervisor layer (kvmsim/Wasp) interprets. Register
    results are truncated to the active processor-mode width. *)

type fault =
  | Memory_oob of { addr : int; size : int }  (** access outside guest RAM *)
  | Page_fault of { addr : int }              (** beyond the mapped region *)
  | Invalid_opcode of { addr : int; msg : string }
  | Division_by_zero of { addr : int }

type exit_reason =
  | Halt
  | Io_out of { port : int; value : int64 }
      (** [out] executed: the hypercall doorbell. The CPU is resumable. *)
  | Io_in of { port : int; reg : Instr.reg }
      (** [in] executed: the host should deposit a value with {!set_reg}
          and resume. *)
  | Fault of fault
  | Out_of_fuel  (** instruction budget exhausted (runaway guest). *)

val pp_exit : Format.formatter -> exit_reason -> unit

type t

val create : mem:Memory.t -> mode:Modes.t -> clock:Cycles.Clock.t -> t
(** Registers and flags zeroed; PC at 0. The caller (boot/Wasp) sets PC
    and SP before running. *)

val mem : t -> Memory.t
val mode : t -> Modes.t

val get_reg : t -> Instr.reg -> int64
val set_reg : t -> Instr.reg -> int64 -> unit
(** Values are truncated to the mode width on write. *)

val pc : t -> int
val set_pc : t -> int -> unit
val set_sp : t -> int -> unit

val instructions_retired : t -> int64

val set_step_hook : t -> (pc:int -> instr:Instr.t -> cost:int -> unit) -> unit
(** Install a per-instruction observer, called once per retired
    instruction after its cost is charged to the clock and before it
    executes (the guest profiler's attachment point). At most one hook is
    active; installing replaces the previous one. *)

val clear_step_hook : t -> unit

val run : ?fuel:int -> t -> exit_reason
(** Execute until an exit. [fuel] (default 200M instructions) bounds
    runaway guests. Resumable: calling [run] again after an I/O exit
    continues after the I/O instruction. After a [Fault] exit, {!pc}
    reports the faulting instruction's address. *)

val reset : t -> mode:Modes.t -> unit
(** Clear registers/flags/PC and switch mode (shell reuse). Guest memory
    is cleared separately by the pool. *)

(** {1 Translator support}

    The surface {!module:Translate} compiles against. These expose just
    enough of the interpreter's internals for translated code to be
    observationally identical to {!run} — same faults, same cycle
    charges, same register truncation. Not intended for other callers. *)

exception Vm_fault of fault
(** Raised by faulting primitives below; {!run} converts it to
    [Fault _]. The translator's dispatcher must do the same. *)

val step : t -> exit_reason option
(** Execute exactly one instruction at the current {!pc} ([None] =
    continue). Raises {!Vm_fault} / {!Memory.Fault} with the PC rewound
    to the faulting instruction. *)

val clock : t -> Cycles.Clock.t

val regs : t -> Bytes.t
(** The live register file: register [r] is the native-endian int64 at
    byte offset [slot r] (read it with {!get64}), followed by one
    {!scratch} slot. Values are invariantly mode-masked; writers must
    store masked values (or use {!set_reg}). *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
(** Bounds-checked native-endian access; ocamlopt keeps the value
    unboxed between them. *)

val slot : Instr.reg -> int
(** Byte offset of a register in {!regs}. *)

val scratch : int
(** Byte offset of the scratch slot in {!regs}: {!pop} loads through it,
    and the interpreter stages immediates there. *)

val has_step_hook : t -> bool

val set_cmp : t -> signed:int -> unsigned:int -> unit
(** Set the comparison flags ([cmp]'s architectural effect). *)

val add_retired : t -> int -> unit
(** Credit [n] retired instructions (batched by translated blocks). *)

(** The memory operations take register-file offsets, never int64
    values, so a value moves between guest pages and registers without
    being boxed. Each checks the mode's address limit first and faults
    without changing any register. *)

val load : t -> Instr.width -> int -> int -> unit
(** [load t w o addr]: read [w] at [addr] into the register slot at
    offset [o], zero-extended and mode-masked. *)

val store : t -> Instr.width -> int -> Bytes.t -> int -> unit
(** [store t w addr src o]: write the low [w] bytes of the int64 at
    offset [o] of [src] (the register file or any buffer in its layout)
    to [addr]. *)

val push : t -> Bytes.t -> int -> unit
(** Push the int64 at offset [o] of [src] ({!store} then [sp -= 8]). *)

val pop : t -> int -> unit
(** Pop into the slot at offset [o], through {!scratch}: [pop sp] ends
    with the popped value. *)

val eval_cond : t -> Instr.cond -> bool

val jump_slot : t -> int -> unit
(** Indirect branch to the register value at offset [o]: a long-mode
    value beyond the host int range clamps to the mode's address limit,
    so the next fetch faults exactly like [Jmp] out of range. *)

val try_fetch : t -> int -> (Instr.t * int) option
(** Decode the instruction at an address without touching machine state;
    [None] when the fetch itself would fault. *)
