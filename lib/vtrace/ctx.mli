(** The instrumentation event: one typed record per occurrence at an
    instrumentation site. A site builds it once and hands it to the
    single [emit] of the {!Kvmsim.Kvm.system} it runs under; stats,
    metrics, the flight ring, probes and fuzz coverage are all folds
    over it. Every field is populated from simulator state that is
    itself deterministic (virtual clocks, seeded RNGs), so predicate
    evaluation and aggregation are replay-stable. *)

(** Why an event happened: one constructor per fixed reason (exit,
    [ept], pool, supervisor, gateway, scheduler). [Named] carries the
    open-ended ones: hypercall and ring-op names, opcode keys, fault-plan
    sites and error classes. Rendered as a string ({!reason_name}) only
    at the edges: the Prometheus label, the probe field, the flight dump. *)
type reason =
  | Hlt | Hypercall | Io_out | Io_in | Fault | Fuel | Cow_break
  | Hit | Miss | Stall | Prewarm | Sync | Async | Scheduled | Lru | Build | Take
  | Retry | Enter | Reject | Ok | Shed | Breaker | Error | Not_found
  | Local | Stolen | Steal | Wait | Named of string

val reason_name : reason -> string

(** The site catalog, in documentation order (see [docs/vtrace.md]). *)
type site =
  | Exit | Hypercall | Hypercall_ret | Ept | Inject | Block | Instr
  | Pool_acquire | Pool_release | Pool_evict | Pool_prewarm
  | Sup_attempt | Sup_backoff | Sup_quarantine
  | Gateway | Sched | Steal | Idle | Ring_enter | Ring_op

val sites : site list
(** Every site, in catalog order — the list the probe language accepts. *)

val site_name : site -> string
(** The name probes use, e.g. ["pool_acquire"]. *)

val site_of_string : string -> site option

val reasons : site -> reason list
(** A site's fixed reasons, in documentation order ([Named] ones aside). *)

type t = {
  site : site;
  core : int;  (** simulated core the event happened on *)
  trace : int64 option;  (** active causal trace id, if tracing *)
  fn : string;  (** function/image name ("" when unknown at the site) *)
  pc : int;  (** guest program counter, 0 when not meaningful *)
  reason : reason;  (** site-specific discriminator, e.g. exit reason *)
  cycles : int64;  (** site-specific cycle measure (duration/cost) *)
  fuel : int;  (** fuel limit in force, 0 when none *)
  nr : int64;  (** site-specific numeric operand (hc nr, page, port…) *)
  port : int;  (** [exit] on port I/O: the port (flight-ring payload) *)
  value : int64;  (** [exit] on [out]: the value written (flight-ring payload) *)
  detail : string;  (** [exit] on a fault: the rendered fault (flight-ring payload) *)
}

val empty : t
(** An [Exit] event with every other field zero/empty ([reason] is
    [Named ""]). Sites build theirs with {!Kvmsim.Kvm.event}. *)

type value = Int of int64 | Str of string

val fields : string list
(** Canonical field names probes can read, in documentation order
    (the flight-ring payload fields are not among them). *)

val canonical : string -> string option
(** Resolve a user-written field name (including aliases [hc_nr], [arg],
    [page], [port] → [nr]; [trace] → [trace_id]) to its canonical name;
    [None] if unknown. *)

val is_numeric : string -> bool
(** Whether a canonical field carries an [Int] (vs [Str]) value. *)

val get : t -> string -> value
(** Field access by canonical name. Raises [Invalid_argument] on an
    unknown field (the language layer validates names at parse time). *)

val render : t -> string -> string
(** Human/key rendering of a field: strings verbatim, [trace_id] as 16
    hex digits (["-"] when absent), [pc] as [0x%x], other ints in
    decimal. Used for aggregation keys, so it is deterministic. *)
