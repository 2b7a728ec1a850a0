(* Measurement scaffolding shared by every workload: seeded op streams,
   the untraced closed-loop timed phase that yields the end-to-end
   metrics, and the traced run (counters, hub phases, layer ladder) that
   yields the per-layer metrics. Every layer is measured from outside, by
   timing the public calls made into it; nothing here hooks into lib/. *)

let freq_ghz = 2.69
let sim_us_of_cycles c = Int64.to_float c /. freq_ghz /. 1e3
let now_ns () = Monotonic_clock.now ()

(* Words allocated so far: minor + major - promoted (a promoted word was
   counted once in each). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

exception Wrong_output of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Wrong_output msg)) fmt

(* Every input and every runtime seed is derived from the workload seed
   and a purpose tag, so streams for different purposes never alias. *)
let derive seed tag = Hashtbl.hash (seed, tag)
let rng seed tag = Cycles.Rng.create ~seed:(derive seed tag)

(** One rung of a layer ladder: the workload's window ops re-driven
    through one public entry point, on state of its own. *)
type rung = {
  label : string;  (** the entry point this rung drives *)
  base : string option;
      (** the rung this one stacks on: self cost = this rung - base *)
  per_instr : bool;
      (** report the self cost per guest instruction, not per op *)
  host_metric : string;  (** per-layer metric fed by the self host cost *)
  words_metric : string;  (** per-layer metric fed by the self allocation *)
  step : int -> int * int64;
      (** run window op [i]; returns (guest instructions retired or 0,
          simulated cycles) *)
}

module type WORKLOAD = sig
  type state
  type op
  type out

  val name : string

  val window : int
  (** Ops whose simulated latency is reported; the timed phase always
      completes at least this many, so [sim_*] are exact per seed. *)

  val gen : seed:int -> Cycles.Rng.t -> op
  val kind : op -> string  (** op-mix class, e.g. handler and file size *)

  val setup : seed:int -> state
  (** Compile, create the runtime, seed files, register functions and run
      the warm-up ops. *)

  val exec : state -> op -> out
  (** The op itself: the only code inside the host stopwatch. *)

  val check : op -> out -> int64
  (** Verify the output; returns the op's simulated cycles.
      @raise Wrong_output *)

  val runtime : state -> Wasp.Runtime.t
  val supervisor : state -> Wasp.Supervisor.t option
  val ladder : seed:int -> op array -> rung list
end

let setups = 9

let ops_of (type o) (module W : WORKLOAD with type op = o) ~seed n =
  let r = rng seed "ops" in
  Array.init n (fun _ -> W.gen ~seed r)

(* ---- statistics ---- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    sorted.(lo) +. ((rank -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  end

(* The highest percentile with at least ten samples beyond it, chosen from
   the window size (fixed per workload) rather than the run's op count, so
   every run of a workload reports the same percentile. *)
let tail_pct n =
  Option.value ~default:50.0
    (List.find_opt (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0) [ 99.9; 99.0; 90.0 ])

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  percentile s 50.0

(* ---- the timed call ---- *)

(* Float-only record: its fields are stored unboxed, so updating them does
   not allocate inside the measured interval. *)
type acc = { mutable words : float; mutable last_ns : float }

let[@inline never] timed acc f x =
  let t0 = now_ns () in
  let w0 = alloc_words () in
  let r = match f x with v -> Ok v | exception e -> Error e in
  let w1 = alloc_words () in
  let t1 = now_ns () in
  acc.words <- acc.words +. (w1 -. w0);
  acc.last_ns <- Int64.to_float (Int64.sub t1 t0);
  r

type harness_cost = { ns_per_op : float; words_per_op : float }

(* An empty op through the same scaffolding: what [timed] itself costs. *)
let harness_cost () =
  let n = 20_000 in
  let acc = { words = 0.0; last_ns = 0.0 } in
  let total = ref 0.0 in
  let noop () = () in
  for _ = 1 to n do
    ignore (timed acc noop ());
    total := !total +. acc.last_ns
  done;
  { ns_per_op = !total /. float_of_int n; words_per_op = acc.words /. float_of_int n }

(* ---- untraced end-to-end run ---- *)

type e2e = {
  setup_s : float;
  attempted : int;
  failed : int;
  first_failure : string option;
  elapsed_s : float;  (** timed phase, set-ups excluded *)
  host_ns : float array;  (** one sample per op *)
  words_per_op : float;  (** harness allocation subtracted *)
  sim : int64 array;  (** window ops; 0 for a failed op *)
  mix : (string * int) list;  (** op kinds over the window *)
  harness : harness_cost;
  heap_peak_mb : float;
}

let describe_exn = function
  | Wrong_output m -> "wrong output: " ^ m
  | e -> "exception: " ^ Printexc.to_string e

let count_kinds kinds =
  let t = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k))) kinds;
  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) t [])

(* Host samples live outside the OCaml heap so that the harness's own
   storage stays out of [heap_peak_mb]; a run records at most this many. *)
let max_samples = 1 lsl 20

let run_e2e ?window (module W : WORKLOAD) ~seed ~seconds =
  let window = Option.value window ~default:W.window in
  let harness = harness_cost () in
  (* The first set-up's state serves every op. The other set-ups are
     spread evenly over the timed phase and discarded, so their median
     samples the same host conditions as the ops do. *)
  let setup_times = Array.make setups 0.0 in
  let timed_setup i =
    let t0 = now_ns () in
    let st = W.setup ~seed in
    setup_times.(i) <- Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9;
    st
  in
  let st = timed_setup 0 in
  let next_setup = ref 1 and setup_ns = ref 0L in
  let extra_setup () =
    let t0 = now_ns () in
    ignore (timed_setup !next_setup);
    incr next_setup;
    setup_ns := Int64.add !setup_ns (Int64.sub (now_ns ()) t0)
  in
  let ops = rng seed "ops" in
  let host = Bigarray.(Array1.create float64 c_layout max_samples) in
  let sim = Array.make window 0L in
  let kinds = ref [] in
  let acc = { words = 0.0; last_ns = 0.0 } in
  let failed = ref 0 and first_failure = ref None in
  let n = ref 0 in
  let t_start = now_ns () in
  let budget = Int64.of_float (seconds *. 1e9) in
  let elapsed () = Int64.sub (Int64.sub (now_ns ()) t_start) !setup_ns in
  let setup_due () =
    !next_setup < setups
    && Int64.compare (elapsed ()) (Int64.div (Int64.mul budget (Int64.of_int !next_setup)) (Int64.of_int setups))
       >= 0
  in
  while !n < window || Int64.compare (elapsed ()) budget < 0 do
    if setup_due () then extra_setup ();
    let op = W.gen ~seed ops in
    let res = timed acc (W.exec st) op in
    let cycles =
      match res with
      | Ok out -> ( try Ok (W.check op out) with e -> Error e)
      | Error e -> Error e
    in
    (match cycles with
    | Ok c -> if !n < window then sim.(!n) <- c
    | Error e ->
        incr failed;
        if !first_failure = None then first_failure := Some (describe_exn e));
    if !n < window then kinds := W.kind op :: !kinds;
    if !n < max_samples then Bigarray.Array1.unsafe_set host !n acc.last_ns;
    incr n
  done;
  let elapsed_s = Int64.to_float (elapsed ()) /. 1e9 in
  let heap_peak_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0
  in
  while !next_setup < setups do
    extra_setup ()
  done;
  {
    setup_s = median setup_times;
    attempted = !n;
    failed = !failed;
    first_failure = !first_failure;
    elapsed_s;
    host_ns = Array.init (min !n max_samples) (Bigarray.Array1.get host);
    words_per_op = Float.max 0.0 ((acc.words /. float_of_int !n) -. harness.words_per_op);
    sim;
    mix = count_kinds !kinds;
    harness;
    heap_peak_mb;
  }

type metric = { name : string; value : float; unit_ : string }

let sim_summary ~window sim =
  let s = Array.map Int64.to_float sim in
  Array.sort compare s;
  let p = tail_pct window in
  let us c = c /. freq_ghz /. 1e3 in
  let mean = Array.fold_left ( +. ) 0.0 s /. float_of_int (max 1 (Array.length s)) in
  (us (percentile s 50.0), p, us (percentile s p), us mean)

(** The end-to-end metrics of the JSON result, i.e. BENCHMARK.json's. *)
let e2e_metrics ~window r =
  let sim_p50, _, sim_tail, sim_mean = sim_summary ~window r.sim in
  [
    { name = "setup_s"; value = r.setup_s; unit_ = "s" };
    { name = "alloc_words_per_op"; value = r.words_per_op; unit_ = "words" };
    { name = "heap_peak_mb"; value = r.heap_peak_mb; unit_ = "MiB" };
    { name = "sim_us_p50"; value = sim_p50; unit_ = "sim_us" };
    { name = "sim_us_tail"; value = sim_tail; unit_ = "sim_us" };
    { name = "sim_us_mean"; value = sim_mean; unit_ = "sim_us" };
  ]

(** Host wall time per op: printed with every run but kept out of the
    JSON result, because on a shared host its run-to-run spread is wider
    than any bound it could be held to (see README.md). *)
let host_time_metrics ~window r =
  let sorted = Array.copy r.host_ns in
  Array.sort compare sorted;
  [
    { name = "host_ops_per_s"; value = float_of_int r.attempted /. r.elapsed_s; unit_ = "1/s" };
    { name = "host_us_p50"; value = percentile sorted 50.0 /. 1e3; unit_ = "us" };
    { name = "host_us_tail"; value = percentile sorted (tail_pct window) /. 1e3; unit_ = "us" };
  ]

(* ---- traced run ---- *)

(* Sim-phase spans the hub records, reported per op (see Wasp.Runtime and
   Kvmsim.Kvm for where each opens). *)
let phases =
  [
    ("vcpu_run", "kvmsim.vcpu_run_sim_us");
    ("hypercall", "wasp.runtime.hypercall_sim_us");
    ("snapshot_restore", "wasp.runtime.snapshot_restore_sim_us");
    ("boot", "wasp.runtime.boot_sim_us");
    ("image_load", "wasp.runtime.image_load_sim_us");
    ("provision", "wasp.pool.provision_sim_us");
  ]

(** Every per-layer metric, in print order, with its unit. A workload that
    never enters a layer reports 0 for it. *)
let per_layer_catalog =
  [
    ("vm.guest_instr_per_op", "count");
    ("vm.cpu.host_ns_per_instr", "ns");
    ("vm.cpu.alloc_words_per_instr", "words");
    ("vm.translate.host_ns_per_instr", "ns");
    ("vm.alloc_words_per_instr", "words");
    ("vm.translate.cold_overhead_us", "us");
    ("vm.translate.cold_overhead_words", "words");
    ("vm.boot.self_host_us", "us");
    ("vm.boot.self_words", "words");
    ("kvmsim.exits_per_op.hlt", "count");
    ("kvmsim.exits_per_op.hypercall", "count");
    ("kvmsim.vcpu_run_sim_us", "sim_us");
    ("wasp.runtime.hypercalls_per_op", "count");
    ("wasp.runtime.hypercall_sim_us", "sim_us");
    ("wasp.runtime.snapshot_restore_sim_us", "sim_us");
    ("wasp.runtime.boot_sim_us", "sim_us");
    ("wasp.runtime.image_load_sim_us", "sim_us");
    ("wasp.runtime.ring_ops_per_enter", "count");
    ("wasp.runtime.self_host_us", "us");
    ("wasp.runtime.self_words", "words");
    ("wasp.pool.hit_ratio", "ratio");
    ("wasp.pool.provision_sim_us", "sim_us");
    ("wasp.pool.host_us_per_cycle", "us");
    ("wasp.pool.words_per_cycle", "words");
    ("wasp.supervisor.retries_per_op", "count");
    ("wasp.supervisor.self_host_us", "us");
    ("wasp.supervisor.self_words", "words");
    ("vhttp.native_host_us", "us");
    ("vhttp.native_words", "words");
    ("vhttp.fileserver.self_host_us", "us");
    ("vhttp.fileserver.self_words", "words");
    ("serverless.gateway.self_host_us", "us");
    ("serverless.gateway.self_words", "words");
    ("serverless.vespid.self_host_us", "us");
    ("serverless.vespid.self_words", "words");
    ("vjs.host_us_per_op", "us");
    ("vjs.words_per_op", "words");
    ("gc.minor_per_op", "count");
    ("gc.major_per_op", "count");
    ("telemetry.overhead_frac", "ratio");
    ("harness.ns_per_op", "ns");
    ("harness.words_per_op", "words");
  ]

type rung_result = {
  r_label : string;
  r_host_us : float;  (** per op *)
  r_words : float;  (** per op *)
  r_instr : float;  (** guest instructions per op *)
  r_cycles : int64 array;
  r_self_us : float;
  r_self_words : float;
}

type traced = {
  t_problems : string list;
  t_layer : (string * float) list;  (** per-layer metrics, catalog order *)
  t_rungs : rung_result list;
  t_phase_table : (string * float) list;  (** span name -> sim us per op *)
  t_kinds : (string * int * float * float * float) list;
      (** kind, ops, sim us/op, exits/op, hypercalls/op *)
  t_sim_untraced : int64 array;
  t_sim_traced : int64 array;
  t_summary : string;
  t_chrome : string;
  t_window : int;
}

let exit_count sys reason =
  Option.value ~default:0 (List.assoc_opt reason (Kvmsim.Kvm.exit_reason_counts sys))

let counter hub name =
  match Telemetry.Metrics.find (Telemetry.Hub.metrics hub) name with
  | Some (Telemetry.Metrics.Counter c) -> c.Telemetry.Metrics.c_value
  | _ -> 0

(* Host-time spans for the ladder live on their own hub, whose clock is
   advanced to monotonic host nanoseconds (1 GHz: one cycle = one ns)
   before every stamp. *)
type host_hub = { hub : Telemetry.Hub.t; clock : Cycles.Clock.t; origin : int64 }

let host_hub () =
  let clock = Cycles.Clock.create ~freq_ghz:1.0 () in
  { hub = Telemetry.Hub.create ~capacity:(1 lsl 20) ~clock (); clock; origin = now_ns () }

let sync h =
  let target = Int64.sub (now_ns ()) h.origin in
  let d = Int64.sub target (Cycles.Clock.now h.clock) in
  if Int64.compare d 0L > 0 then Cycles.Clock.advance h.clock d

let host_enter h ?args name =
  sync h;
  Telemetry.Hub.enter h.hub ?args name

let host_leave h ?args () =
  sync h;
  Telemetry.Hub.leave h.hub ?args ()

let rung_warmup = 4

(* The ladder re-drives a prefix of the window: enough ops for a stable
   per-op mean, few enough that the slowest ladder (compute's interpreter)
   stays within a few seconds. *)
let ladder_ops = 300
let ladder_block = 20

(* Rungs take turns in blocks of [ladder_block] ops, so every rung sees
   the same host conditions and their differences are paired. Each block
   starts from a full major collection and runs long enough for its own
   minor and major collections, so a rung pays for its own garbage and not
   for the previous rung's (allocation is counted as Gc minor + major -
   promoted, which charges an interval for the survivors its collections
   promote). A rung whose step raises is reported and dropped. *)
let run_ladder h rungs ~n ~problem =
  let rungs = Array.of_list rungs in
  let m = Array.length rungs in
  let alive = Array.make m true in
  let acc = Array.init m (fun _ -> { words = 0.0; last_ns = 0.0 }) in
  let ns = Array.make m 0.0 and instr = Array.make m 0 in
  let cycles = Array.init m (fun _ -> Array.make n 0L) in
  let step ~record j i =
    if alive.(j) then begin
      host_enter h rungs.(j).label;
      let r = timed (if record then acc.(j) else { words = 0.0; last_ns = 0.0 }) rungs.(j).step i in
      host_leave h ();
      match r with
      | Ok (k, c) when record ->
          ns.(j) <- ns.(j) +. acc.(j).last_ns;
          instr.(j) <- instr.(j) + k;
          cycles.(j).(i) <- c
      | Ok _ -> ()
      | Error e ->
          alive.(j) <- false;
          problem rungs.(j).label e
    end
  in
  for i = 0 to min n rung_warmup - 1 do
    for j = 0 to m - 1 do
      step ~record:false j i
    done
  done;
  for b = 0 to (n - 1) / ladder_block do
    for j = 0 to m - 1 do
      Gc.full_major ();
      for i = b * ladder_block to min n ((b + 1) * ladder_block) - 1 do
        step ~record:true j i
      done
    done
  done;
  let k = float_of_int n in
  let live = List.filter (fun j -> alive.(j)) (List.init m Fun.id) in
  let us j = ns.(j) /. k /. 1e3 and words j = acc.(j).words /. k in
  let base j =
    Option.bind rungs.(j).base (fun label -> List.find_opt (fun b -> rungs.(b).label = label) live)
  in
  List.map
    (fun j ->
      let base_us, base_words = match base j with Some b -> (us b, words b) | None -> (0.0, 0.0) in
      ( rungs.(j),
        {
          r_label = rungs.(j).label;
          r_host_us = us j;
          r_words = words j;
          r_instr = float_of_int instr.(j) /. k;
          r_cycles = cycles.(j);
          r_self_us = us j -. base_us;
          r_self_words = words j -. base_words;
        } ))
    live

(* Replace every ["pid":1,] in a Chrome trace so two exports can share one
   file as separate process rows. *)
let retarget_pid json pid =
  let needle = "\"pid\":1," and by = Printf.sprintf "\"pid\":%d," pid in
  let nl = String.length needle in
  let b = Buffer.create (String.length json) in
  let i = ref 0 in
  while !i < String.length json do
    if !i + nl <= String.length json && String.sub json !i nl = needle then begin
      Buffer.add_string b by;
      i := !i + nl
    end
    else begin
      Buffer.add_char b json.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Both exports are {"displayTimeUnit":..,"traceEvents":[...]}: splice the
   second's events into the first. *)
let merge_chrome a b =
  let events j =
    let start = String.index j '[' + 1 in
    let stop = String.rindex j ']' in
    String.sub j start (stop - start)
  in
  let head = String.sub a 0 (String.index a '[' + 1) in
  head ^ events a ^ "," ^ events b ^ "]}"

let run_traced ?window (module W : WORKLOAD) ~seed =
  let window = Option.value window ~default:W.window in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let harness = harness_cost () in
  let ops = ops_of (module W) ~seed window in
  let drive st ~before ~after =
    let sim = Array.make window 0L in
    let acc = { words = 0.0; last_ns = 0.0 } in
    let ns = ref 0.0 in
    Array.iteri
      (fun i op ->
        let b = before () in
        (match timed acc (W.exec st) op with
        | Ok out -> (
            try sim.(i) <- W.check op out with e -> problem "op %d: %s" i (describe_exn e))
        | Error e -> problem "op %d: %s" i (describe_exn e));
        ns := !ns +. acc.last_ns;
        after op sim.(i) b)
      ops;
    (sim, !ns)
  in
  (* untraced pass: the same state and window as the end-to-end run *)
  let st = W.setup ~seed in
  let gc0 = Gc.quick_stat () in
  let sim_u, ns_u = drive st ~before:ignore ~after:(fun _ _ () -> ()) in
  let gc1 = Gc.quick_stat () in
  (* traced pass: a fresh set-up with the hub attached after warm-up *)
  let st = W.setup ~seed in
  let w = W.runtime st in
  let sys = Wasp.Runtime.kvm w in
  let hub = Telemetry.Hub.create ~capacity:(1 lsl 20) ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let rstats = Wasp.Runtime.stats w in
  let pstats = Wasp.Runtime.pool_stats w in
  let sup_retries () =
    match W.supervisor st with
    | Some s -> (Wasp.Supervisor.stats s).Wasp.Supervisor.retries
    | None -> 0
  in
  let hc0 = rstats.Wasp.Runtime.hypercalls in
  let reused0 = pstats.Wasp.Pool.reused and created0 = pstats.Wasp.Pool.created in
  let hlt0 = exit_count sys "hlt" and hyp0 = exit_count sys "hypercall" in
  let retries0 = sup_retries () in
  let kinds = Hashtbl.create 8 in
  let snap () = ((Kvmsim.Kvm.stats sys).Kvmsim.Kvm.runs, rstats.Wasp.Runtime.hypercalls) in
  let sim_traced, ns_t =
    drive st ~before:snap ~after:(fun op sim (runs0, hcs0) ->
        let runs1, hcs1 = snap () in
        let k = W.kind op in
        let n, cycles, exits, hcs = Option.value ~default:(0, 0L, 0, 0) (Hashtbl.find_opt kinds k) in
        Hashtbl.replace kinds k (n + 1, Int64.add cycles sim, exits + runs1 - runs0, hcs + hcs1 - hcs0))
  in
  Wasp.Runtime.set_telemetry w None;
  if sim_u <> sim_traced then problem "traced simulated cycles differ from the untraced pass";
  let k = float_of_int window in
  let per_op x = float_of_int x /. k in
  let kind_rows =
    Hashtbl.fold
      (fun kd (n, cycles, exits, hcs) a ->
        let nf = float_of_int n in
        (kd, n, sim_us_of_cycles cycles /. nf, float_of_int exits /. nf, float_of_int hcs /. nf) :: a)
      kinds []
    |> List.sort compare
  in
  let span_sums = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.Span.span) ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt span_sums s.Telemetry.Span.name) in
      Hashtbl.replace span_sums s.Telemetry.Span.name (Int64.add prev s.Telemetry.Span.duration))
    (Telemetry.Span.spans (Telemetry.Hub.spans hub));
  if Telemetry.Span.dropped (Telemetry.Hub.spans hub) > 0 then problem "hub dropped spans";
  let phase_us name =
    sim_us_of_cycles (Option.value ~default:0L (Hashtbl.find_opt span_sums name)) /. k
  in
  let phase_table =
    Hashtbl.fold (fun name _ a -> name :: a) span_sums []
    |> List.sort compare
    |> List.map (fun name -> (name, phase_us name))
  in
  (* the ladder *)
  let h = host_hub () in
  let rungs = W.ladder ~seed ops in
  let results =
    run_ladder h rungs ~n:(min window ladder_ops) ~problem:(fun label e ->
        problem "rung %s: %s" label (describe_exn e))
  in
  let find label = List.find_opt (fun (r, _) -> r.label = label) results in
  let ladder_metrics =
    List.concat_map
      (fun (r, res) ->
        if r.per_instr then
          let per = if res.r_instr > 0.0 then res.r_instr else 1.0 in
          [ (r.host_metric, res.r_self_us *. 1e3 /. per); (r.words_metric, res.r_self_words /. per) ]
        else [ (r.host_metric, res.r_self_us); (r.words_metric, res.r_self_words) ])
      results
  in
  (* the translator is a host-side choice: every rung pair that differs
     only in engine must charge identical cycles *)
  (match (find "Runtime.run ~translate:false", find "Runtime.run ~translate:true") with
  | Some (_, off), Some (_, on) when off.r_cycles <> on.r_cycles ->
      problem "translator on/off rungs charged different cycles"
  | _ -> ());
  (* the topmost rung that observes guest instructions: the virtine's own *)
  let instr =
    List.fold_left (fun acc (_, res) -> if res.r_instr > 0.0 then res.r_instr else acc) 0.0 results
  in
  let reused = pstats.Wasp.Pool.reused - reused0 and created = pstats.Wasp.Pool.created - created0 in
  let enters = counter hub "wasp_ring_enters_total" in
  let generic =
    [
      ("vm.guest_instr_per_op", instr);
      ("kvmsim.exits_per_op.hlt", per_op (exit_count sys "hlt" - hlt0));
      ("kvmsim.exits_per_op.hypercall", per_op (exit_count sys "hypercall" - hyp0));
      ("wasp.runtime.hypercalls_per_op", per_op (rstats.Wasp.Runtime.hypercalls - hc0));
      ( "wasp.runtime.ring_ops_per_enter",
        if enters = 0 then 0.0 else float_of_int (counter hub "wasp_ring_ops_total") /. float_of_int enters );
      ( "wasp.pool.hit_ratio",
        if reused + created = 0 then 0.0 else float_of_int reused /. float_of_int (reused + created) );
      ("wasp.supervisor.retries_per_op", per_op (sup_retries () - retries0));
      ("gc.minor_per_op", per_op (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      ("gc.major_per_op", per_op (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("telemetry.overhead_frac", (ns_t /. ns_u) -. 1.0);
      ("harness.ns_per_op", harness.ns_per_op);
      ("harness.words_per_op", harness.words_per_op);
    ]
    @ List.map (fun (span, metric) -> (metric, phase_us span)) phases
  in
  let all = generic @ ladder_metrics in
  let layer =
    List.map
      (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name all)))
      per_layer_catalog
  in
  let chrome =
    merge_chrome
      (Telemetry.Chrome.to_json ~process:("wasp (simulated): " ^ W.name) hub)
      (retarget_pid (Telemetry.Chrome.to_json ~process:"perfbench ladder (host ns)" h.hub) 2)
  in
  {
    t_problems = List.rev !problems;
    t_layer = layer;
    t_rungs = List.map snd results;
    t_phase_table = phase_table;
    t_kinds = kind_rows;
    t_sim_untraced = sim_u;
    t_sim_traced = sim_traced;
    t_summary = Telemetry.Summary.render ~title:(W.name ^ " traced window") hub;
    t_chrome = chrome;
    t_window = window;
  }
