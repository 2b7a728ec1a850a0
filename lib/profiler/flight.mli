(** VM-exit flight recorder.

    A fixed-size ring holding the most recent VM exits — reason, guest
    PC, virtual-cycle stamp, core id, plus a free-form hypervisor
    annotation (hypercall number/args/return). Recording charges no
    simulated cycles, so the recorder stays attached permanently; when a
    guest faults or violates policy the runtime renders the ring as an
    annotated "black box" {!dump}. *)

type entry = private {
  seq : int;
  at : int64;
  event : Vtrace.Ctx.t;
      (** what happened: an [exit] (reason, guest PC, port I/O payload,
          fault [detail]), an [ept] break (a CoW break of a shared guest
          page, handled "in-kernel" but worth a black-box entry; [nr] is
          the page) or an [inject] (a fault-plan injection, so a
          post-mortem can tell injected turbulence from organic failure).
          Its [core] and [trace] say which core and which traced request
          took it — the hook that makes a slow request's exits greppable
          in the black box. *)
  note : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of the last [capacity] (default 128) exits. *)

val capacity : t -> int

val total : t -> int
(** Exits ever recorded (including overwritten ones). *)

val count : t -> int
(** Exits currently retained ([min total capacity]). *)

val record : t -> at:int64 -> Vtrace.Ctx.t -> unit
(** Append an [exit], [ept] or [inject] event stamped [at]. The ring
    keeps the event itself. *)

val append_note : t -> string -> unit
(** Attach hypervisor context (e.g. "write(1, 0x80, 5) -> 5") to the most
    recently recorded exit, appended (["; "]-separated) so several
    observers (hypercall dispatch, vtrace probes) can stamp the same exit
    without clobbering each other. *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

(** What an entry records: [Ept_break page], [Injected site], or the
    exit's kind with its payload ([Io_in port], [Io_out (port, value)],
    [Fault detail]); a hypercall exit is an [Io_out]. *)
type kind =
  | Ept_break of int64 | Injected of string | Hlt | Io_in of int | Io_out of int * int64
  | Fault of string | Fuel

val kind : Vtrace.Ctx.t -> kind

val pp_entry : Format.formatter -> entry -> unit

val dump : t -> reason:string -> string
(** The annotated black-box report: a header with [reason] and the
    retained entries, oldest first. *)
