(* VM-exit flight recorder: a fixed-size ring of the most recent VM
   exits, stamped with the virtual clock and the core that took them.
   Recording charges no cycles (the real-hardware analogue is a per-cpu
   lock-free ring, as in IRIS-style hypervisor record/replay), so it can
   stay on permanently; on a guest fault or policy violation the last-N
   events are rendered as a "black box" report. *)

type entry = {
  seq : int;             (** monotonically increasing exit number *)
  at : int64;            (** virtual-clock cycle stamp *)
  event : Vtrace.Ctx.t;  (** the [exit], [ept] or [inject] event *)
  note : string;         (** hypervisor annotation (hypercall nr/args/ret) *)
}

(* The ring holds the events themselves — an exit costs no record beyond
   the event its site already built — with the stamp and annotation in
   parallel slots. *)
type t = {
  capacity : int;
  events : Vtrace.Ctx.t array;
  ats : int array;
  notes : string array;
  mutable next : int;   (** ring slot for the next record *)
  mutable total : int;  (** exits ever recorded *)
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  {
    capacity;
    events = Array.make capacity Vtrace.Ctx.empty;
    ats = Array.make capacity 0;
    notes = Array.make capacity "";
    next = 0;
    total = 0;
  }

let capacity t = t.capacity
let total t = t.total
let count t = min t.total t.capacity

let record t ~at ev =
  t.events.(t.next) <- ev;
  t.ats.(t.next) <- Int64.to_int at;
  t.notes.(t.next) <- "";
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let append_note t note =
  if t.total > 0 then begin
    let i = (t.next + t.capacity - 1) mod t.capacity in
    let prev = t.notes.(i) in
    t.notes.(i) <- (if prev = "" then note else prev ^ "; " ^ note)
  end

(* Oldest-first list of retained entries. *)
let entries t =
  let n = count t in
  let first = (t.next - n + t.capacity * 2) mod t.capacity in
  List.init n (fun k ->
      let i = (first + k) mod t.capacity in
      { seq = t.total - n + k; at = Int64.of_int t.ats.(i); event = t.events.(i); note = t.notes.(i) })

(* What an entry records, the one case analysis the dump and the
   fuzzer's exit-edge coverage both render: a hypercall exit is an
   [Io_out] on the hypercall port. *)
type kind =
  | Ept_break of int64 | Injected of string | Hlt | Io_in of int | Io_out of int * int64
  | Fault of string | Fuel

let kind (ev : Vtrace.Ctx.t) =
  match (ev.site, ev.reason) with
  | Ept, _ -> Ept_break ev.nr
  | Inject, site -> Injected (Vtrace.Ctx.reason_name site)
  | _, Vtrace.Ctx.Hlt -> Hlt
  | _, Io_in -> Io_in ev.port
  | _, Fault -> Fault ev.detail
  | _, Fuel -> Fuel
  | _ -> Io_out (ev.port, ev.value)

let describe ev =
  match kind ev with
  | Ept_break page -> Printf.sprintf "ept_violation page=%Ld" page
  | Injected site -> "INJECTED " ^ site
  | Hlt -> "hlt"
  | Io_in port -> Printf.sprintf "io_in port=0x%x" port
  | Fault detail -> "FAULT " ^ detail
  | Fuel -> "out_of_fuel"
  | Io_out (port, value) -> Printf.sprintf "io_out port=0x%x value=%Ld" port value

let pp_entry ppf e =
  let ev = e.event in
  Format.fprintf ppf "#%-6d cyc=%-12Ld core=%d pc=0x%06x %s%s%s" e.seq e.at ev.core ev.pc
    (describe ev)
    (match ev.trace with
    | Some id -> Printf.sprintf " trace=%016Lx" id
    | None -> "")
    (if e.note = "" then "" else "  ; " ^ e.note)

let dump t ~reason =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "=== flight recorder: %s ===\n%d VM exits recorded, last %d retained:\n"
       reason t.total (count t));
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_entry e))
    (entries t);
  Buffer.add_string buf "=== end flight recorder ===\n";
  Buffer.contents buf
