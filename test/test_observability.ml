(* Golden observability test: the fixed-seed scenario of Golden_scenario
   must render every sink — Prometheus text, Chrome trace JSON, vtrace
   tables, flight-ring dumps, --explain-slowest timelines and the stats
   records — byte for byte as committed under golden/. Any change to
   what an instrumentation site records, or to the order in which it
   first touches a metric, shows up here.

   To regenerate after an intended change:
     dune build test/test_observability.exe
     GOLDEN_UPDATE=test/golden ./_build/default/test/test_observability.exe *)

(* The probe sites the committed tables were generated with. *)
let golden_sites =
  [
    "exit"; "hypercall"; "hypercall_ret"; "ept"; "inject"; "block"; "instr";
    "pool_acquire"; "pool_release"; "pool_evict"; "sup_attempt"; "sup_backoff";
    "sup_quarantine"; "gateway"; "sched"; "steal"; "idle"; "ring_enter"; "ring_op";
  ]

let outputs = lazy (fst (Golden_scenario.run ~sites:golden_sites ()))

let names =
  [ "metrics.prom"; "trace.json"; "vtrace.txt"; "flight.txt"; "explain.txt"; "stats.txt" ]

let files (o : Golden_scenario.outputs) =
  List.combine names [ o.prometheus; o.chrome; o.vtrace; o.flight; o.explain; o.stats ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* First differing line, so a mismatch names the spot instead of
   printing two multi-kilobyte strings. *)
let first_diff expected actual =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go i e a =
    match (e, a) with
    | [], [] -> None
    | x :: e, y :: a when String.equal x y -> go (i + 1) e a
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of output>")
    | [], y :: _ -> Some (i, "<end of file>", y)
  in
  go 1 e a

let check name () =
  let actual = List.assoc name (files (Lazy.force outputs)) in
  let expected = read_file (Filename.concat "golden" name) in
  match first_diff expected actual with
  | None -> ()
  | Some (line, e, a) ->
      Alcotest.failf "%s differs at line %d:\n  expected: %s\n  actual:   %s" name line
        e a

let () =
  match Sys.getenv_opt "GOLDEN_UPDATE" with
  | Some dir ->
      List.iter
        (fun (name, s) -> write_file (Filename.concat dir name) s)
        (files (Lazy.force outputs))
  | None ->
      Alcotest.run "observability"
        [
          ( "golden",
            List.map (fun name -> Alcotest.test_case name `Quick (check name)) names );
        ]
