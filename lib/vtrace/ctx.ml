type reason =
  | Hlt | Hypercall | Io_out | Io_in | Fault | Fuel | Cow_break
  | Hit | Miss | Stall | Prewarm | Sync | Async | Scheduled | Lru | Build | Take
  | Retry | Enter | Reject | Ok | Shed | Breaker | Error | Not_found
  | Local | Stolen | Steal | Wait | Named of string

let reason_name = function
  | Hlt -> "hlt" | Hypercall -> "hypercall" | Io_out -> "io_out" | Io_in -> "io_in"
  | Fault -> "fault" | Fuel -> "fuel" | Cow_break -> "cow_break" | Hit -> "hit"
  | Miss -> "miss" | Stall -> "stall" | Prewarm -> "prewarm" | Sync -> "sync"
  | Async -> "async" | Scheduled -> "scheduled" | Lru -> "lru" | Build -> "build"
  | Take -> "take" | Retry -> "retry" | Enter -> "enter" | Reject -> "reject" | Ok -> "ok"
  | Shed -> "shed" | Breaker -> "breaker" | Error -> "error" | Not_found -> "not_found"
  | Local -> "local" | Stolen -> "stolen" | Steal -> "steal" | Wait -> "wait" | Named s -> s

type site =
  | Exit | Hypercall | Hypercall_ret | Ept | Inject | Block | Instr
  | Pool_acquire | Pool_release | Pool_evict | Pool_prewarm
  | Sup_attempt | Sup_backoff | Sup_quarantine
  | Gateway | Sched | Steal | Idle | Ring_enter | Ring_op

(* Each site's probe name and fixed reasons, in documentation order. *)
let catalog : (site * string * reason list) list =
  [
    (Exit, "exit", [ Hlt; Hypercall; Io_out; Io_in; Fault; Fuel ]); (Hypercall, "hypercall", []);
    (Hypercall_ret, "hypercall_ret", []); (Ept, "ept", [ Cow_break ]); (Inject, "inject", []);
    (Block, "block", []); (Instr, "instr", []);
    (Pool_acquire, "pool_acquire", [ Hit; Stall; Prewarm; Miss ]);
    (Pool_release, "pool_release", [ Sync; Async; Scheduled ]); (Pool_evict, "pool_evict", [ Lru ]);
    (Pool_prewarm, "pool_prewarm", [ Build; Take ]); (Sup_attempt, "sup_attempt", [ Ok ]);
    (Sup_backoff, "sup_backoff", [ Retry ]); (Sup_quarantine, "sup_quarantine", [ Enter; Reject ]);
    (Gateway, "gateway", [ Ok; Error; Shed; Breaker; Not_found ]);
    (Sched, "sched", [ Local; Stolen ]); (Steal, "steal", [ Steal ]); (Idle, "idle", [ Wait ]);
    (Ring_enter, "ring_enter", [ Enter ]); (Ring_op, "ring_op", []);
  ]

let sites = List.map (fun (site, _, _) -> site) catalog
let entry site = List.find (fun (s, _, _) -> s == site) catalog
let site_name site = match entry site with _, name, _ -> name
let reasons site = match entry site with _, _, reasons -> reasons

let site_of_string name =
  List.find_map (fun (site, n, _) -> if n = name then Some site else None) catalog

type t = {
  site : site;
  core : int;
  trace : int64 option;
  fn : string;
  pc : int;
  reason : reason;
  cycles : int64;
  fuel : int;
  nr : int64;
  port : int;
  value : int64;
  detail : string;
}

let empty =
  { site = Exit; core = 0; trace = None; fn = ""; pc = 0; reason = Named ""; cycles = 0L;
    fuel = 0; nr = 0L; port = 0; value = 0L; detail = "" }

type value = Int of int64 | Str of string

let fields =
  [ "site"; "core"; "trace_id"; "fn"; "pc"; "reason"; "cycles"; "fuel"; "nr" ]

let canonical name =
  match name with
  | "hc_nr" | "arg" | "page" | "port" -> Some "nr"
  | "trace" -> Some "trace_id"
  | f -> if List.mem f fields then Some f else None

let is_numeric = function "site" | "fn" | "reason" -> false | _ -> true

let get ctx = function
  | "site" -> Str (site_name ctx.site)
  | "core" -> Int (Int64.of_int ctx.core)
  | "trace_id" -> Int (Option.value ctx.trace ~default:0L)
  | "fn" -> Str ctx.fn
  | "pc" -> Int (Int64.of_int ctx.pc)
  | "reason" -> Str (reason_name ctx.reason)
  | "cycles" -> Int ctx.cycles
  | "fuel" -> Int (Int64.of_int ctx.fuel)
  | "nr" -> Int ctx.nr
  | f -> invalid_arg ("Vtrace.Ctx.get: unknown field " ^ f)

let render ctx field =
  match (field, get ctx field) with
  | _, Str s -> if s = "" then "-" else s
  | "trace_id", Int _ -> (
      match ctx.trace with
      | Some id -> Printf.sprintf "%016Lx" id
      | None -> "-")
  | "pc", Int i -> Printf.sprintf "0x%Lx" i
  | _, Int i -> Int64.to_string i
