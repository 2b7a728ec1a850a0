(* Integration tests: full flows across the compiler, runtime, servers,
   engines and platforms -- the scenarios a downstream user would build. *)

module R = Wasp.Runtime

(* ------------------------------------------------------------------ *)
(* Scenario 1: a library with a sensitive function, isolated per call   *)
(* ------------------------------------------------------------------ *)

let test_sensitive_library_function () =
  (* a "parser" handling untrusted input is virtine-isolated; feeding it
     hostile input crashes only the virtine *)
  let src =
    {|
int g_limit = 8;
virtine int parse_header(int word, int len) {
  char buf[8];
  int i = 0;
  // deliberately missing bounds check against g_limit
  while (i < len) {
    buf[i] = word & 0xFF;
    word = word >> 8;
    i = i + 1;
  }
  return buf[0];
}
|}
  in
  let compiled = Vcc.Compile.compile src in
  let w = R.create () in
  (* benign input works *)
  let ok = Vcc.Compile.invoke w compiled "parse_header" [ 0x41L; 1L ] () in
  Alcotest.(check int64) "benign" 0x41L ok.R.return_value;
  (* hostile length smashes the virtine's stack, in isolation; a huge
     length eventually runs past the guest region and faults *)
  let evil = Vcc.Compile.invoke w compiled "parse_header" [ 0x41L; 1000000L ] () in
  (match evil.R.outcome with
  | R.Faulted _ | R.Fuel_exhausted -> ()
  | R.Exited _ -> ()
  (* overflow may also just corrupt virtine-private memory; the point is
     the host survives *));
  let again = Vcc.Compile.invoke w compiled "parse_header" [ 0x42L; 1L ] () in
  Alcotest.(check int64) "host and runtime unharmed" 0x42L again.R.return_value

(* ------------------------------------------------------------------ *)
(* Scenario 2: one runtime, many tenants                                *)
(* ------------------------------------------------------------------ *)

let test_multi_tenant_isolation () =
  (* two "tenants" run functions in the same Wasp runtime; tenant A's
     writes can never be observed by tenant B even though they reuse the
     same pooled shells *)
  let tenant_a =
    Vcc.Compile.compile ~name:"a"
      {|virtine int stash(int secret) {
          int *p = (int*) 1024;
          *p = secret;
          return 0;
        }|}
  in
  let tenant_b =
    Vcc.Compile.compile ~name:"b"
      {|virtine int probe() {
          int *p = (int*) 1024;
          return *p;
        }|}
  in
  let w = R.create () in
  for i = 1 to 5 do
    ignore (Vcc.Compile.invoke w tenant_a "stash" [ Int64.of_int (1000 + i) ] ());
    let r = Vcc.Compile.invoke w tenant_b "probe" [] () in
    Alcotest.(check int64) (Printf.sprintf "round %d: no cross-tenant leak" i) 0L
      r.R.return_value
  done

(* ------------------------------------------------------------------ *)
(* Scenario 3: end-to-end web service with virtine handlers             *)
(* ------------------------------------------------------------------ *)

let test_web_service_end_to_end () =
  let w = R.create ~clean:`Async () in
  let env = R.env w in
  Wasp.Hostenv.add_file env ~path:"/site/hello" "Hello, virtines!";
  Wasp.Hostenv.add_file env ~path:"/site/data" (String.make 512 'd');
  let compiled = Vhttp.Fileserver.compile ~snapshot:true in
  (* a client session: several requests through real HTTP bytes *)
  List.iter
    (fun (path, expect_status, expect_len) ->
      let served = Vhttp.Fileserver.serve_virtine w compiled ~path in
      Alcotest.(check int) (path ^ " status") expect_status served.Vhttp.Fileserver.status;
      Alcotest.(check int) (path ^ " length") expect_len
        (String.length served.Vhttp.Fileserver.body))
    [ ("/site/hello", 200, 16); ("/site/data", 200, 512); ("/site/missing", 404, 0) ];
  (* many requests reuse shells and the snapshot *)
  let stats = R.pool_stats w in
  Alcotest.(check bool) "pool reused shells" true (stats.Wasp.Pool.reused >= 2)

(* ------------------------------------------------------------------ *)
(* Scenario 4: serverless platform through the HTTP gateway             *)
(* ------------------------------------------------------------------ *)

let test_gateway_full_session () =
  let w = R.create ~clean:`Async () in
  let platform = Serverless.Vespid.create w in
  let g = Serverless.Gateway.create platform in
  let http meth path body =
    Serverless.Gateway.handle g
      (Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body meth path))
  in
  let status raw =
    match Vhttp.Http.parse_response raw with
    | Ok r -> r.Vhttp.Http.status
    | Error e -> Alcotest.fail e
  in
  let body raw =
    match Vhttp.Http.parse_response raw with
    | Ok r -> r.Vhttp.Http.resp_body
    | Error e -> Alcotest.fail e
  in
  (* register the paper's base64 workload over HTTP *)
  let r = http "POST" "/register/b64?entry=encode" Vjs.Workload.base64_js_source in
  Alcotest.(check int) "registered" 201 (status r);
  (* invoke it repeatedly; results must match the host reference *)
  List.iter
    (fun payload ->
      let r = http "POST" "/invoke/b64" payload in
      Alcotest.(check int) "invoked" 200 (status r);
      Alcotest.(check string)
        ("encode " ^ payload)
        (Vcrypto.Base64.encode payload) (body r))
    [ "alpha"; "beta and gamma"; "" ];
  (* platform statistics confirm virtine reuse *)
  Alcotest.(check bool) "snapshots captured" true
    (Wasp.Snapshot_store.count (R.snapshots w) >= 1)

(* ------------------------------------------------------------------ *)
(* Scenario 5: encrypt-then-serve pipeline (three subsystems)           *)
(* ------------------------------------------------------------------ *)

let test_crypto_http_pipeline () =
  (* encrypt a document with the virtine-isolated cipher, store it in the
     host FS, serve it through the virtine file server, decrypt, compare *)
  let w = R.create ~clean:`Async () in
  let key = "super secret key" in
  let iv = Bytes.make 16 '\000' in
  let evp = Vcrypto.Evp.create (Vcrypto.Evp.Virtine w) ~key in
  let document = Bytes.of_string "attack at dawn (by the lake)" in
  let ciphertext = Vcrypto.Evp.encrypt evp ~iv document in
  Wasp.Hostenv.add_file (R.env w) ~path:"/vault/doc" (Bytes.to_string ciphertext);
  let compiled = Vhttp.Fileserver.compile ~snapshot:true in
  let served = Vhttp.Fileserver.serve_virtine w compiled ~path:"/vault/doc" in
  Alcotest.(check int) "served" 200 served.Vhttp.Fileserver.status;
  let ks = Vcrypto.Aes.expand_key key in
  (match Vcrypto.Aes.pkcs7_unpad
           (Vcrypto.Aes.decrypt_cbc ks ~iv (Bytes.of_string served.Vhttp.Fileserver.body))
   with
  | Some plain -> Alcotest.(check string) "roundtrip" (Bytes.to_string document) (Bytes.to_string plain)
  | None -> Alcotest.fail "bad padding after pipeline")

(* ------------------------------------------------------------------ *)
(* Scenario 6: futures fan-out                                          *)
(* ------------------------------------------------------------------ *)

let test_future_fan_out_fib () =
  let src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
  let compiled = Vcc.Compile.compile src in
  let vi = Option.get (Vcc.Compile.find_virtine compiled "fib") in
  let w = R.create ~clean:`Async () in
  let futures =
    List.map
      (fun n ->
        Wasp.Future.spawn w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
          ~args:[ Int64.of_int n ] ())
      [ 5; 6; 7; 8; 9; 10 ]
  in
  let results = Wasp.Future.join_all futures in
  Alcotest.(check (list int64)) "fan-out results" [ 5L; 8L; 13L; 21L; 34L; 55L ]
    (List.map (fun r -> r.R.return_value) results)

(* ------------------------------------------------------------------ *)
(* Scenario 7: trace-driven audit of a permissive virtine               *)
(* ------------------------------------------------------------------ *)

let test_trace_audit () =
  (* run the file server with a telemetry hub attached and audit exactly
     which host services the virtine touched, from the ordered hypercall
     spans -- the paper's interposition story *)
  let w = R.create () in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  R.set_telemetry w (Some hub);
  let path = Vhttp.Fileserver.add_default_files (R.env w) in
  let compiled = Vhttp.Fileserver.compile ~snapshot:false in
  ignore (Vhttp.Fileserver.serve_virtine w compiled ~path);
  let used =
    List.filter_map
      (fun (s : Telemetry.Span.span) ->
        if s.name = "hypercall" && List.assoc "allowed" s.args = "true" then
          Some (List.assoc "nr" s.args)
        else None)
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  let expected =
    List.map Wasp.Hc.name
      [ Wasp.Hc.read; Wasp.Hc.stat; Wasp.Hc.open_; Wasp.Hc.read; Wasp.Hc.write;
        Wasp.Hc.close; Wasp.Hc.exit_ ]
  in
  Alcotest.(check (list string)) "the paper's exact 7-hypercall sequence" expected used

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "sensitive library function" `Quick test_sensitive_library_function;
          Alcotest.test_case "multi-tenant isolation" `Quick test_multi_tenant_isolation;
          Alcotest.test_case "web service end-to-end" `Quick test_web_service_end_to_end;
          Alcotest.test_case "gateway full session" `Quick test_gateway_full_session;
          Alcotest.test_case "crypto+http pipeline" `Quick test_crypto_http_pipeline;
          Alcotest.test_case "futures fan-out" `Quick test_future_fan_out_fib;
          Alcotest.test_case "trace audit (7 hypercalls)" `Quick test_trace_audit;
        ] );
    ]
