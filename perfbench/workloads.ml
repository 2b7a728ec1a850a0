(* The four workloads. Each op's inputs come from the seeded op stream;
   each state is built from the workload seed alone. *)

open Harness

let fuel = 50_000_000
let runtime_seed seed = derive seed "runtime"

let exited (r : Wasp.Runtime.result) =
  match r.Wasp.Runtime.outcome with Wasp.Runtime.Exited _ -> true | _ -> false

let virtine c fname =
  match Vcc.Compile.find_virtine c fname with
  | Some vi -> vi
  | None -> failwith ("perfbench: no virtine " ^ fname)

(* Warm-up ops cover every op kind once with a fixed amount of work, so
   set-up time does not depend on what the seed happens to draw. *)
let warm_up st ~exec ~check ops = List.iter (fun op -> ignore (check op (exec st op))) ops

(* Guest instructions retired, read through [Runtime.run ?inspect]. *)
let retired_probe () =
  let n = ref 0 in
  let inspect _mem cpu = n := Int64.to_int (Vm.Cpu.instructions_retired cpu) in
  (n, inspect)

(* ---- compute: Figure 11 samples ----
   The engines (Vm.Translate for the virtine, Vm.Cpu for native) do almost
   all the host work; pool, KVM and restore work are tiny. *)

module Compute = struct
  let name = "compute"

  let window = 1000
  let src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"

  let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

  type state = { w : Wasp.Runtime.t; c : Vcc.Compile.compiled; native_clock : Cycles.Clock.t }
  type op = int
  type out = Wasp.Runtime.result * int64

  let gen ~seed:_ r = 12 + Cycles.Rng.int r 5
  let kind n = Printf.sprintf "fib(%d)" n
  let compile () = Vcc.Compile.compile ~name:"perfbench_fib" src

  (* Figure 11's snapshot arm: async cleaning, snapshot on *)
  let create_runtime seed = Wasp.Runtime.create ~seed:(runtime_seed seed) ~clean:`Async ()

  let exec st n =
    let arg = [ Int64.of_int n ] in
    let r = Vcc.Compile.invoke st.w st.c "fib" arg ~fuel () in
    (r, Vcc.Compile.invoke_native ~clock:st.native_clock st.c "fib" arg ~fuel ())

  let check n ((r : Wasp.Runtime.result), native) =
    let want = Int64.of_int (fib n) in
    if not (exited r && r.Wasp.Runtime.return_value = want) then
      fail "virtine fib(%d) = %Ld, want %Ld" n r.Wasp.Runtime.return_value want;
    if native <> want then fail "native fib(%d) = %Ld, want %Ld" n native want;
    r.Wasp.Runtime.cycles

  let setup ~seed =
    let st =
      { w = create_runtime seed; c = compile (); native_clock = Cycles.Clock.create () }
    in
    warm_up st ~exec ~check [ 12; 13; 14; 15; 16 ];
    st

  let runtime st = st.w
  let supervisor _ = None

  (* [invoke_native]'s CPU set-up (Vcc.Compile), driven by the translator
     instead of the interpreter. *)
  let bare_translate () =
    let vi = virtine (Vcc.Compile.compile ~snapshot:false ~name:"perfbench_fib" src) "fib" in
    let image = vi.Vcc.Compile.image and asm = vi.Vcc.Compile.asm in
    let clock = Cycles.Clock.create () in
    fun n ->
      let mem = Vm.Memory.create ~size:image.Wasp.Image.mem_size in
      Vm.Memory.write_bytes mem ~off:image.Wasp.Image.origin image.Wasp.Image.code;
      Vm.Memory.write_u64 mem
        (Asm.lookup asm Vcc.Vlibc.heap_ptr_label)
        (Int64.of_int (Asm.lookup asm "__heap_start"));
      Vm.Memory.write_u64 mem 0 (Int64.of_int n);
      let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock in
      Vm.Cpu.set_pc cpu (Asm.lookup asm Vcc.Vlibc.post_init_label);
      Vm.Cpu.set_sp cpu Wasp.Layout.stack_top;
      let t0 = Cycles.Clock.now clock in
      Cycles.Clock.advance_int clock Cycles.Costs.function_call;
      let engine = Vm.Translate.create cpu in
      let rec loop () =
        match Vm.Translate.run ~fuel engine with
        | Vm.Cpu.Io_out { port; value } when port = Wasp.Hc.port && Int64.to_int value = Wasp.Hc.exit_ ->
            Vm.Cpu.get_reg cpu 1
        | Vm.Cpu.Halt -> Vm.Cpu.get_reg cpu 0
        | Vm.Cpu.Io_out _ | Vm.Cpu.Io_in _ ->
            Vm.Cpu.set_reg cpu 0 0L;
            loop ()
        | (Vm.Cpu.Fault _ | Vm.Cpu.Out_of_fuel) as e ->
            fail "bare translate: %s" (Format.asprintf "%a" Vm.Cpu.pp_exit e)
      in
      let v = loop () in
      if v <> Int64.of_int (fib n) then fail "bare translate fib(%d) = %Ld" n v;
      (Int64.to_int (Vm.Cpu.instructions_retired cpu), Cycles.Clock.elapsed_since clock t0)

  let ladder ~seed ops =
    let c = compile () in
    let native_clock = Cycles.Clock.create () in
    let w = create_runtime seed in
    let vi = virtine c "fib" in
    let translate = bare_translate () in
    (* invoke_native runs the same program, so it retires the same count *)
    let native_instr = Hashtbl.create 8 in
    Array.iter
      (fun n -> if not (Hashtbl.mem native_instr n) then Hashtbl.replace native_instr n (fst (translate n)))
      ops;
    let retired, inspect = retired_probe () in
    [
      {
        label = "Vcc.Compile.invoke_native";
        base = None;
        per_instr = true;
        host_metric = "vm.cpu.host_ns_per_instr";
        words_metric = "vm.cpu.alloc_words_per_instr";
        step =
          (fun i ->
            let n = ops.(i) in
            let t0 = Cycles.Clock.now native_clock in
            let v = Vcc.Compile.invoke_native ~clock:native_clock c "fib" [ Int64.of_int n ] ~fuel () in
            if v <> Int64.of_int (fib n) then fail "native fib(%d) = %Ld" n v;
            (Option.value ~default:0 (Hashtbl.find_opt native_instr n), Cycles.Clock.elapsed_since native_clock t0));
      };
      {
        label = "Vm.Translate.run";
        base = None;
        per_instr = true;
        host_metric = "vm.translate.host_ns_per_instr";
        words_metric = "vm.alloc_words_per_instr";
        step = (fun i -> translate ops.(i));
      };
      {
        label = "Wasp.Runtime.run";
        base = Some "Vm.Translate.run";
        per_instr = false;
        host_metric = "wasp.runtime.self_host_us";
        words_metric = "wasp.runtime.self_words";
        step =
          (fun i ->
            let n = ops.(i) in
            let r =
              Wasp.Runtime.run w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
                ~args:[ Int64.of_int n ] ~snapshot_key:vi.Vcc.Compile.image.Wasp.Image.name ~fuel ~inspect ()
            in
            ignore (check n (r, Int64.of_int (fib n)));
            (!retired, r.Wasp.Runtime.cycles));
      };
    ]
end

(* ---- cold: non-snapshotted virtines under supervision ----
   Provisioning, mode boot and per-reset retranslation dominate; the guest
   retires little, so engine throughput barely moves this workload while a
   cross-shell translation cache would move it most. *)

module Cold = struct
  let name = "cold"

  let window = 1000

  let src =
    "virtine int tri(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"

  let modes = [| Vm.Modes.Real; Vm.Modes.Protected; Vm.Modes.Long |]

  type state = { sup : Wasp.Supervisor.t; images : Vcc.Compile.virtine_info array }
  type op = { mode : int; n : int }
  type out = Wasp.Supervisor.outcome

  let gen ~seed:_ r =
    let mode = Cycles.Rng.int r 3 in
    { mode; n = 8 + Cycles.Rng.int r 33 }

  let kind op = Vm.Modes.to_string modes.(op.mode)

  let images () =
    Array.map
      (fun mode ->
        virtine
          (Vcc.Compile.compile ~snapshot:false ~mode
             ~name:("perfbench_tri_" ^ Vm.Modes.to_string mode)
             src)
          "tri")
      modes

  let want op = Int64.of_int (op.n * (op.n - 1) / 2)

  let exec st op =
    let vi = st.images.(op.mode) in
    Wasp.Supervisor.run st.sup vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
      ~args:[ Int64.of_int op.n ] ()

  let check_result op (r : Wasp.Runtime.result) =
    if not (exited r && r.Wasp.Runtime.return_value = want op) then
      fail "tri(%d) in %s = %Ld" op.n (kind op) r.Wasp.Runtime.return_value

  let check op (o : out) =
    match o.Wasp.Supervisor.result with
    | Ok r ->
        check_result op r;
        o.Wasp.Supervisor.cycles
    | Error (cls, msg) -> fail "%s: %s" (Wasp.Supervisor.error_class_to_string cls) msg

  let create_runtime ?translate seed = Wasp.Runtime.create ~seed:(runtime_seed seed) ?translate ()

  let setup ~seed =
    let st = { sup = Wasp.Supervisor.create (create_runtime seed); images = images () } in
    warm_up st ~exec ~check (List.init (Array.length modes) (fun mode -> { mode; n = 24 }));
    st

  let runtime st = Wasp.Supervisor.runtime st.sup
  let supervisor st = Some st.sup

  let ladder ~seed ops =
    let images = images () in
    let mem_size op = images.(op.mode).Vcc.Compile.image.Wasp.Image.mem_size in
    (* the pool rungs run on a KVM system of their own *)
    let sys = Kvmsim.Kvm.open_dev ~seed:(runtime_seed seed) () in
    let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
    let cycle ?(boot = false) op =
      let clock = Kvmsim.Kvm.clock sys in
      let t0 = Cycles.Clock.now clock in
      let mode = modes.(op.mode) in
      let shell, _ = Wasp.Pool.acquire pool ~mem_size:(mem_size op) ~mode in
      if boot then
        ignore
          (Vm.Boot.perform ~mem:shell.Wasp.Pool.mem ~clock ~rng:(Kvmsim.Kvm.rng sys) ~target:mode);
      Wasp.Pool.release pool shell;
      (0, Cycles.Clock.elapsed_since clock t0)
    in
    let runtime_rung translate =
      let w = create_runtime ~translate seed in
      let retired, inspect = retired_probe () in
      fun i ->
        let op = ops.(i) in
        let vi = images.(op.mode) in
        let r =
          Wasp.Runtime.run w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
            ~args:[ Int64.of_int op.n ] ~inspect ()
        in
        check_result op r;
        (!retired, r.Wasp.Runtime.cycles)
    in
    let sup = Wasp.Supervisor.create (create_runtime seed) in
    [
      {
        label = "Wasp.Pool.acquire/release";
        base = None;
        per_instr = false;
        host_metric = "wasp.pool.host_us_per_cycle";
        words_metric = "wasp.pool.words_per_cycle";
        step = (fun i -> cycle ops.(i));
      };
      {
        label = "Vm.Boot.perform";
        base = Some "Wasp.Pool.acquire/release";
        per_instr = false;
        host_metric = "vm.boot.self_host_us";
        words_metric = "vm.boot.self_words";
        step = (fun i -> cycle ~boot:true ops.(i));
      };
      {
        label = "Runtime.run ~translate:false";
        base = Some "Vm.Boot.perform";
        per_instr = false;
        host_metric = "wasp.runtime.self_host_us";
        words_metric = "wasp.runtime.self_words";
        step = runtime_rung false;
      };
      {
        label = "Runtime.run ~translate:true";
        base = Some "Runtime.run ~translate:false";
        per_instr = false;
        host_metric = "vm.translate.cold_overhead_us";
        words_metric = "vm.translate.cold_overhead_words";
        step = runtime_rung true;
      };
      {
        label = "Wasp.Supervisor.run";
        base = Some "Runtime.run ~translate:true";
        per_instr = false;
        host_metric = "wasp.supervisor.self_host_us";
        words_metric = "wasp.supervisor.self_words";
        step =
          (fun i ->
            let op = ops.(i) in
            let vi = images.(op.mode) in
            let o =
              Wasp.Supervisor.run sup vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
                ~args:[ Int64.of_int op.n ] ()
            in
            (0, check op o));
      };
    ]
end

(* ---- http: the Figure 13 file server ----
   Exit- and hypercall-bound. The classic and ring handlers use the
   hypercall path in opposite ways (7 exits vs 2), so a batching gain that
   costs per-exit dispatch shows up. *)

module Http_files = struct
  let name = "http"

  let window = 1000

  type handler = Classic | Ring
  type state = { w : Wasp.Runtime.t; classic : Vcc.Compile.compiled; ring : Vcc.Compile.compiled }
  type op = { handler : handler; path : string; body : string option; size : string }
  type out = Vhttp.Fileserver.served

  let sizes = [ ("16B", 16); ("512B", 512); ("2KiB", 2048) ]
  let per_size = 4

  (* the static corpus, a pure function of the seed *)
  let files seed =
    let r = rng seed "files" in
    List.concat_map
      (fun (label, size) ->
        List.init per_size (fun k ->
            ( Printf.sprintf "/f%s_%d.txt" label k,
              label,
              String.init size (fun _ -> Char.chr (32 + Cycles.Rng.int r 95)) )))
      sizes

  let corpora = Hashtbl.create 2

  let corpus seed =
    match Hashtbl.find_opt corpora seed with
    | Some c -> c
    | None ->
        let c = Array.of_list (files seed) in
        Hashtbl.replace corpora seed c;
        c

  let gen ~seed r =
    let handler = if Cycles.Rng.int r 2 = 0 then Classic else Ring in
    if Cycles.Rng.int r 10 = 0 then
      { handler; path = Printf.sprintf "/missing_%d.txt" (Cycles.Rng.int r 1000); body = None; size = "404" }
    else
      let corpus = corpus seed in
      let path, size, body = corpus.(Cycles.Rng.int r (Array.length corpus)) in
      { handler; path; body = Some body; size }

  let kind op = (match op.handler with Classic -> "classic/" | Ring -> "ring/") ^ op.size

  let install seed env = Array.iter (fun (path, _, body) -> Wasp.Hostenv.add_file env ~path body) (corpus seed)

  let exec st op =
    Vhttp.Fileserver.serve_virtine st.w (match op.handler with Classic -> st.classic | Ring -> st.ring) ~path:op.path

  let check op (s : out) =
    (match op.body with
    | Some body ->
        if s.Vhttp.Fileserver.status <> 200 || s.Vhttp.Fileserver.body <> body then
          fail "%s: status %d, %d body bytes" op.path s.Vhttp.Fileserver.status
            (String.length s.Vhttp.Fileserver.body)
    | None ->
        if s.Vhttp.Fileserver.status <> 404 then fail "%s: status %d, want 404" op.path s.Vhttp.Fileserver.status);
    s.Vhttp.Fileserver.cycles

  let setup ~seed =
    let w = Wasp.Runtime.create ~seed:(runtime_seed seed) () in
    install seed (Wasp.Runtime.env w);
    let st =
      {
        w;
        classic = Vhttp.Fileserver.compile ~snapshot:true;
        ring = Vhttp.Fileserver.compile_ring ~snapshot:true;
      }
    in
    (* each handler: the first file of each size, then a miss *)
    let corpus = corpus seed in
    warm_up st ~exec ~check
      (List.concat_map
         (fun handler ->
           { handler; path = "/missing.txt"; body = None; size = "404" }
           :: List.init (List.length sizes) (fun i ->
                  let path, size, body = corpus.(i * per_size) in
                  { handler; path; body = Some body; size }))
         [ Classic; Ring ]);
    st

  let runtime st = st.w
  let supervisor _ = None

  let ladder ~seed ops =
    let env = Wasp.Hostenv.create () in
    install seed env;
    let clock = Cycles.Clock.create () and native_rng = rng seed "native" in
    let st = setup ~seed in
    let direct = setup ~seed in
    let retired, inspect = retired_probe () in
    (* [serve_virtine] without parsing the response: the bare runtime call *)
    let run_handler op =
      let vi = virtine (match op.handler with Classic -> direct.classic | Ring -> direct.ring) "handle" in
      let client, server = Wasp.Hostenv.socket_pair (Wasp.Runtime.env direct.w) in
      ignore (Wasp.Hostenv.send client (Bytes.of_string (Vhttp.Fileserver.request_for ~path:op.path)));
      let r =
        Wasp.Runtime.run direct.w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy ~conn:server
          ~snapshot_key:vi.Vcc.Compile.image.Wasp.Image.name ~inspect ()
      in
      let resp = Wasp.Hostenv.recv client ~max:8192 in
      if Bytes.length resp = 0 then fail "%s: empty response" op.path;
      (!retired, r.Wasp.Runtime.cycles)
    in
    [
      {
        label = "Vhttp.Fileserver.serve_native";
        base = None;
        per_instr = false;
        host_metric = "vhttp.native_host_us";
        words_metric = "vhttp.native_words";
        step =
          (fun i ->
            let op = ops.(i) in
            let s = Vhttp.Fileserver.serve_native ~env ~clock ~rng:native_rng ~path:op.path in
            (0, check op s));
      };
      {
        label = "Wasp.Runtime.run";
        base = Some "Vhttp.Fileserver.serve_native";
        per_instr = false;
        host_metric = "wasp.runtime.self_host_us";
        words_metric = "wasp.runtime.self_words";
        step = (fun i -> run_handler ops.(i));
      };
      {
        label = "Vhttp.Fileserver.serve_virtine";
        base = Some "Wasp.Runtime.run";
        per_instr = false;
        host_metric = "vhttp.fileserver.self_host_us";
        words_metric = "vhttp.fileserver.self_words";
        step = (fun i -> (0, check ops.(i) (exec st ops.(i))));
      };
    ]
end

(* ---- serverless: the Vespid gateway ----
   Native payloads never enter Kvmsim.Kvm.run or the vx engine: the only
   workload covering gateway, vespid and vjs, and the no-change control for
   engine and exit work. *)

module Faas = struct
  let name = "serverless"

  let window = 1000

  type state = { w : Wasp.Runtime.t; gw : Serverless.Gateway.t }
  type req = Invoke of bytes | List | Malformed
  type op = { req : req; raw : string }
  type out = string * int64

  let invoke_request payload =
    Vhttp.Http.request_to_string
      (Vhttp.Http.make_request ~body:(Bytes.to_string payload) "POST" "/invoke/b64")

  let list_request =
    { req = List; raw = Vhttp.Http.request_to_string (Vhttp.Http.make_request "GET" "/functions") }

  let gen ~seed:_ r =
    let roll = Cycles.Rng.int r 100 in
    if roll < 2 then
      (* a request line with no spaces: never a valid method/path/version *)
      let line = String.init (4 + Cycles.Rng.int r 40) (fun _ -> Char.chr (65 + Cycles.Rng.int r 26)) in
      { req = Malformed; raw = line ^ "\r\n\r\n" }
    else if roll < 7 then list_request
    else
      let payload = Bytes.init (64 + Cycles.Rng.int r 961) (fun _ -> Char.chr (Cycles.Rng.int r 256)) in
      { req = Invoke payload; raw = invoke_request payload }

  let kind op = match op.req with Invoke _ -> "invoke" | List -> "functions" | Malformed -> "malformed"

  let exec st op =
    let clock = Wasp.Runtime.clock st.w in
    let t0 = Cycles.Clock.now clock in
    let resp = Serverless.Gateway.handle st.gw op.raw in
    (resp, Cycles.Clock.elapsed_since clock t0)

  let expect_response ~status ?body raw =
    match Vhttp.Http.parse_response raw with
    | Error e -> fail "unparseable response: %s" e
    | Ok r ->
        if r.Vhttp.Http.status <> status then fail "status %d, want %d" r.Vhttp.Http.status status;
        Option.iter
          (fun b -> if r.Vhttp.Http.resp_body <> b then fail "body mismatch (%d bytes)" (String.length r.Vhttp.Http.resp_body))
          body

  let check_request op raw =
    match op.req with
    | Invoke payload -> expect_response ~status:200 ~body:(Vjs.Workload.reference_encode payload) raw
    | List -> expect_response ~status:200 ~body:"b64\n" raw
    | Malformed -> expect_response ~status:400 raw

  let check op (raw, cycles) =
    check_request op raw;
    cycles

  let register gw =
    let raw =
      Vhttp.Http.request_to_string
        (Vhttp.Http.make_request ~body:Vjs.Workload.base64_js_source "POST" "/register/b64?entry=encode")
    in
    expect_response ~status:201 (Serverless.Gateway.handle gw raw)

  let platform seed =
    let w = Wasp.Runtime.create ~seed:(runtime_seed seed) () in
    let vespid = Serverless.Vespid.create w in
    let gw = Serverless.Gateway.create vespid in
    register gw;
    (w, vespid, gw)

  let setup ~seed =
    let w, _, gw = platform seed in
    let st = { w; gw } in
    let r = rng seed "warmup" in
    let payload () = Bytes.init 512 (fun _ -> Char.chr (Cycles.Rng.int r 256)) in
    warm_up st ~exec ~check
      (List.init 4 (fun _ ->
           let p = payload () in
           { req = Invoke p; raw = invoke_request p })
      @ [ list_request; { req = Malformed; raw = "WARMUP\r\n\r\n" } ]);
    st

  let runtime st = st.w
  let supervisor _ = None

  let ladder ~seed ops =
    let clock = Cycles.Clock.create () in
    let _, vespid, _ = platform seed in
    let _, _, gw = platform seed in
    [
      {
        label = "Vjs.Workload.run_baseline";
        base = None;
        per_instr = false;
        host_metric = "vjs.host_us_per_op";
        words_metric = "vjs.words_per_op";
        step =
          (fun i ->
            match ops.(i).req with
            | Invoke input ->
                let o = Vjs.Workload.run_baseline ~clock ~input in
                if o.Vjs.Workload.output <> Vjs.Workload.reference_encode input then fail "baseline base64 mismatch";
                (0, o.Vjs.Workload.latency_cycles)
            | List | Malformed -> (0, 0L));
      };
      {
        label = "Serverless.Vespid.invoke";
        base = Some "Vjs.Workload.run_baseline";
        per_instr = false;
        host_metric = "serverless.vespid.self_host_us";
        words_metric = "serverless.vespid.self_words";
        step =
          (fun i ->
            match ops.(i).req with
            | Invoke input -> (
                match Serverless.Vespid.invoke_timed vespid ~name:"b64" ~input with
                | Ok out, cycles ->
                    if out <> Vjs.Workload.reference_encode input then fail "vespid base64 mismatch";
                    (0, cycles)
                | Error e, _ -> fail "vespid: %s" e)
            | List | Malformed -> (0, 0L));
      };
      {
        label = "Serverless.Gateway.handle";
        base = Some "Serverless.Vespid.invoke";
        per_instr = false;
        host_metric = "serverless.gateway.self_host_us";
        words_metric = "serverless.gateway.self_words";
        step =
          (fun i ->
            let op = ops.(i) in
            check_request op (Serverless.Gateway.handle gw op.raw);
            (0, 0L));
      };
    ]
end

let all : (module WORKLOAD) list =
  [ (module Compute); (module Cold); (module Http_files); (module Faas) ]

let find name = List.find_opt (fun (module W : WORKLOAD) -> W.name = name) all
