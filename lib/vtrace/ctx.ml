type site =
  | Exit | Hypercall | Hypercall_ret | Ept | Inject | Block | Instr
  | Pool_acquire | Pool_release | Pool_evict | Pool_prewarm
  | Sup_attempt | Sup_backoff | Sup_quarantine
  | Gateway | Sched | Steal | Idle | Ring_enter | Ring_op

let catalog =
  [
    (Exit, "exit"); (Hypercall, "hypercall"); (Hypercall_ret, "hypercall_ret");
    (Ept, "ept"); (Inject, "inject"); (Block, "block"); (Instr, "instr");
    (Pool_acquire, "pool_acquire"); (Pool_release, "pool_release");
    (Pool_evict, "pool_evict"); (Pool_prewarm, "pool_prewarm");
    (Sup_attempt, "sup_attempt"); (Sup_backoff, "sup_backoff");
    (Sup_quarantine, "sup_quarantine"); (Gateway, "gateway"); (Sched, "sched");
    (Steal, "steal"); (Idle, "idle"); (Ring_enter, "ring_enter"); (Ring_op, "ring_op");
  ]

let sites = List.map fst catalog
let site_name site = List.assq site catalog

let site_of_string name =
  List.find_map (fun (site, n) -> if n = name then Some site else None) catalog

type t = {
  site : site;
  core : int;
  trace : int64 option;
  fn : string;
  pc : int;
  reason : string;
  cycles : int64;
  fuel : int;
  nr : int64;
  port : int;
  value : int64;
  detail : string;
}

let empty =
  { site = Exit; core = 0; trace = None; fn = ""; pc = 0; reason = ""; cycles = 0L;
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
  | "reason" -> Str ctx.reason
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
