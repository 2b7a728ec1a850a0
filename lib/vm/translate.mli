(** Decode-once superblock translation cache for the vx CPU.

    A drop-in fast path for {!Cpu.run}: basic blocks are decoded once
    into closure-chain {e superblocks} (direct-threaded, chained on
    fallthrough and static branch targets), keyed by [(pc, cpu_mode)].

    Validity is byte-exact. {!Memory.page_version} and {!Memory.epoch}
    are the fast filter: a block whose recorded versions still match is
    reused without further checks. A block whose versions went stale is
    compared with the bytes it decoded (kept once per block); if they
    are unchanged its versions are restamped in place and it is reused,
    chain slots included. Only changed bytes cost a retranslation, so
    data that shares a page with code (crt0's heap init loop, say) no
    longer thrashes the cache. A pool reset's epoch bump is handled the
    same way: blocks survive it, and each is compared with the bytes the
    next image put back when first reentered, so a recycled shell
    rerunning its image translates nothing. The table holds at most one
    block per [(pc, mode)] the vCPU has run.

    Observationally identical to the interpreter: same faults at the
    same PCs, same exits, bit-for-bit identical cycle counts and retired
    totals (exact {!Instr.cost} per instruction, batched and committed
    at every host observation point), same fuel semantics. When a step
    hook is installed (profiling), {!run} falls back to {!Cpu.run} so
    the hook's one-call-per-instruction contract holds.

    Executing cached blocks allocates nothing: operands are resolved at
    translation time to slots of the CPU's [Bytes] register file, and
    values move unboxed between slots, guest pages and the native-int
    clock and retired counters.

    See [docs/translation.md] for the design. *)

type t

type stats = {
  mutable blocks_translated : int;  (** superblocks compiled (incl. retranslations) *)
  mutable dispatches : int;
      (** dispatcher entries (chained transfers excluded); a block that
          aborts after a store to one of its own pages re-enters here *)
  mutable invalidations : int;
      (** cached blocks dropped because their bytes changed; stale page
          versions over unchanged bytes are not counted *)
  mutable hook_fallbacks : int;     (** runs delegated to the interpreter *)
}

val new_stats : unit -> stats
(** All counters zero. *)

val create : ?stats:stats -> Cpu.t -> t
(** A translation cache bound to one CPU (and its memory). Blocks
    persist across {!run} calls and memory resets until their bytes
    change. [stats] (default
    {!new_stats}[ ()]) is the record its counters accumulate into;
    caches given the same record share one set of totals. *)

val run : ?fuel:int -> t -> Cpu.exit_reason
(** Execute until a VM exit, like {!Cpu.run} (same default fuel,
    resumable after I/O exits, PC rewound to the faulting instruction on
    [Fault]). *)

val set_block_hook : t -> (pc:int -> unit) option -> unit
(** Install (or clear) a block-entry observer: called once per
    superblock entered — both dispatcher entries and chained static
    transfers — with the block's start pc. Unlike a {!Cpu} step hook
    this does {e not} force the interpreter fallback: the hook fires at
    superblock boundaries, which is exactly the granularity the
    translated engine preserves. The hook must not mutate guest state
    or advance clocks (vtrace block probes rely on this). *)

(** {1 Introspection} *)

val stats : t -> stats
