(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the untraced closed loop (one client, one thread) and
   prints the end-to-end metrics; --trace 1 runs the traced pass and the
   layer ladder and prints the per-layer metrics. The last line of
   standard output is the JSON result. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (compute|cold|http|serverless) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s >= 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let (module W : Harness.WORKLOAD) =
    match Workloads.find !workload with Some w -> w | None -> usage ()
  in
  if not !trace then begin
    let r = Harness.run_e2e (module W) ~seed ~seconds:!seconds in
    Report.print_e2e ~workload:W.name ~seed ~window:W.window r;
    print_endline
      (Report.result_json ~correct:(r.Harness.failed = 0) ~attempted:r.Harness.attempted
         ~failed:r.Harness.failed
         (Harness.e2e_metrics ~window:W.window r))
  end
  else begin
    let t = Harness.run_traced (module W) ~seed in
    Report.print_traced ~workload:W.name t;
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" W.name seed) in
    Out_channel.with_open_bin path (fun oc -> output_string oc t.Harness.t_chrome);
    Printf.printf "\nChrome trace (simulated hub spans + host ladder spans): %s\n" path;
    let failed = List.length t.Harness.t_problems in
    print_endline
      (Report.result_json ~correct:(failed = 0) ~attempted:t.Harness.t_window ~failed
         (List.map
            (fun (name, value) ->
              { Harness.name; value; unit_ = List.assoc name Harness.per_layer_catalog })
            t.Harness.t_layer))
  end
