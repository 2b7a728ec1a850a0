let policy_mask =
  Wasp.Policy.mask_of_list
    [ Wasp.Hc.read; Wasp.Hc.write; Wasp.Hc.open_; Wasp.Hc.close; Wasp.Hc.stat ]

let source =
  Printf.sprintf
    {|
virtine_config(%Ld) int handle() {
  char req[1024];
  int n = read(0, req, 1024);
  if (n <= 0) {
    return -1;
  }
  if (req[0] != 'G' || req[1] != 'E' || req[2] != 'T' || req[3] != ' ') {
    char *bad = "HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
    write(0, bad, strlen(bad));
    return 400;
  }
  char path[128];
  int i = 4;
  int j = 0;
  while (i < n && req[i] != ' ' && j < 127) {
    path[j] = req[i];
    i = i + 1;
    j = j + 1;
  }
  path[j] = 0;
  int size = stat(path);
  if (size < 0) {
    char *nf = "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n";
    write(0, nf, strlen(nf));
    return 404;
  }
  int fd = open(path);
  char body[2048];
  int m = read(fd, body, 2048);
  char resp[4096];
  char *h = "HTTP/1.0 200 OK\r\nContent-Length: ";
  strcpy(resp, h);
  int len = strlen(h);
  char numbuf[16];
  int nd = itoa(m, numbuf);
  memcpy(resp + len, numbuf, nd);
  len = len + nd;
  resp[len] = 13;
  len = len + 1;
  resp[len] = 10;
  len = len + 1;
  resp[len] = 13;
  len = len + 1;
  resp[len] = 10;
  len = len + 1;
  memcpy(resp + len, body, m);
  len = len + m;
  write(0, resp, len);
  close(fd);
  return 200;
}
|}
    policy_mask

let compile ~snapshot = Vcc.Compile.compile ~name:"fileserver" ~snapshot source

(* The ringed handler: the same request, two exits instead of seven. One
   discrete read() pulls the request in (the host pushes the bytes, so it
   cannot ride the ring), then stat/open/read/write/close/exit are queued
   as one batch and kicked with a single ring_enter doorbell:
   - stat and open are HALT-flagged: a miss cancels the rest of the batch
     and the guest resumes to serve the 404 on the (rare) slow path;
   - read takes open's fd via a link; close takes it too;
   - the response is a vectored write — header segment plus a body
     segment whose length (-1) takes read's byte count — so the guest
     never assembles a response buffer: zero-copy straight from the file
     buffer, close-delimited (no Content-Length);
   - the final exit(200) op completes inside the drain, so the guest
     never re-enters just to leave.
   Hypercall numbers and flag values are inlined by the sprintf below
   (RING_HALT = 1, RING_VEC = 4; see docs/hypercalls.md). *)
let ring_source =
  Printf.sprintf
    {|
virtine_config(%Ld) int handle() {
  char req[1024];
  int n = read(0, req, 1024);
  if (n <= 0) {
    return -1;
  }
  if (req[0] != 'G' || req[1] != 'E' || req[2] != 'T' || req[3] != ' ') {
    char *bad = "HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n";
    write(0, bad, strlen(bad));
    return 400;
  }
  char path[128];
  int i = 4;
  int j = 0;
  while (i < n && req[i] != ' ' && j < 127) {
    path[j] = req[i];
    i = i + 1;
    j = j + 1;
  }
  path[j] = 0;
  char body[2048];
  char *h = "HTTP/1.0 200 OK\r\n\r\n";
  int iov[4];
  iov[0] = h;
  iov[1] = strlen(h);
  iov[2] = body;
  iov[3] = -1;
  int s_stat = ring_push(%d, path, 0, 0);
  ring_flag(s_stat, 1);
  int s_open = ring_push(%d, path, 0, 0);
  ring_flag(s_open, 1);
  int s_read = ring_push(%d, 0, body, 2048);
  ring_link(s_read, s_open, 0);
  int s_write = ring_push(%d, 0, iov, 2);
  ring_flag(s_write, 4);
  ring_link(s_write, s_read, 0);
  int s_close = ring_push(%d, 0, 0, 0);
  ring_link(s_close, s_open, 0);
  ring_push(%d, 200, 0, 0);
  ring_enter();
  if (ring_result(s_stat) < 0 || ring_result(s_open) < 0) {
    char *nf = "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n";
    write(0, nf, strlen(nf));
    return 404;
  }
  return 500;
}
|}
    policy_mask Wasp.Hc.stat Wasp.Hc.open_ Wasp.Hc.read Wasp.Hc.write Wasp.Hc.close
    Wasp.Hc.exit_

let compile_ring ~snapshot =
  Vcc.Compile.compile ~name:"fileserver_ring" ~snapshot ring_source

let default_file_body =
  String.init 1024 (fun i -> Char.chr (65 + (i mod 26)))

let add_default_files env =
  Wasp.Hostenv.add_file env ~path:"/index.html" default_file_body;
  Wasp.Hostenv.add_file env ~path:"/small.txt" "hello";
  Wasp.Hostenv.add_file env ~path:"/page2.html" (String.make 2000 'x');
  "/index.html"

let request_for ~path =
  Http.request_to_string (Http.make_request "GET" path)

type served = {
  status : int;
  body : string;
  cycles : int64;
  hypercalls : int;
  exits : int;
}

(* [response_bytes] comes straight from [Hostenv.recv] and nothing else
   holds it, so it is parsed in place rather than copied to a string. *)
let parse_served response_bytes ~cycles ~hypercalls ~exits =
  match Http.parse_response (Bytes.unsafe_to_string response_bytes) with
  | Ok r -> { status = r.Http.status; body = r.Http.resp_body; cycles; hypercalls; exits }
  | Error e -> failwith ("fileserver: bad response: " ^ e)

let serve_virtine w compiled ~path =
  let vi =
    match Vcc.Compile.find_virtine compiled "handle" with
    | Some vi -> vi
    | None -> failwith "fileserver: no virtine handler"
  in
  let client_end, server_end = Wasp.Hostenv.socket_pair (Wasp.Runtime.env w) in
  ignore (Wasp.Hostenv.send client_end (Bytes.of_string (request_for ~path)));
  let snapshot_key =
    if vi.Vcc.Compile.snapshot then Some vi.Vcc.Compile.image.Wasp.Image.name else None
  in
  let runs_before = (Kvmsim.Kvm.stats (Wasp.Runtime.kvm w)).Kvmsim.Kvm.runs in
  let result =
    Wasp.Runtime.run w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
      ~conn:server_end ?snapshot_key ()
  in
  let exits = (Kvmsim.Kvm.stats (Wasp.Runtime.kvm w)).Kvmsim.Kvm.runs - runs_before in
  let response = Wasp.Hostenv.recv client_end ~max:8192 in
  parse_served response ~cycles:result.Wasp.Runtime.cycles
    ~hypercalls:result.Wasp.Runtime.hypercalls ~exits

(* The native handler does the same work without any virtualization: a
   function call, the same five host syscalls, and the same response
   assembly (charged as compute proportional to bytes moved). *)
let serve_native ~env ~clock ~rng ~path =
  let start = Cycles.Clock.now clock in
  let charge c = Cycles.Clock.advance_int clock (Cycles.Costs.jitter rng ~pct:0.08 c) in
  charge Cycles.Costs.function_call;
  let request = request_for ~path in
  charge Cycles.Costs.host_read;
  let status, body =
    match Http.parse_request request with
    | Error _ -> (400, "")
    | Ok req -> (
        charge (String.length request / 4);
        charge Cycles.Costs.host_stat;
        match Wasp.Hostenv.file_size env ~path:req.Http.path with
        | None -> (404, "")
        | Some _ -> (
            charge Cycles.Costs.host_open;
            match Wasp.Hostenv.open_file env ~path:req.Http.path with
            | None -> (404, "")
            | Some fd ->
                charge Cycles.Costs.host_read;
                let contents = Option.value (Wasp.Hostenv.read_fd env ~fd ~len:2048) ~default:"" in
                charge (Cycles.Costs.memcpy_cost (String.length contents));
                charge Cycles.Costs.host_write;
                charge Cycles.Costs.host_close;
                ignore (Wasp.Hostenv.close_fd env ~fd);
                (200, contents)))
  in
  { status; body; cycles = Cycles.Clock.elapsed_since clock start; hypercalls = 0; exits = 0 }
