(* The one .vxr re-execution path.

   A recording's header (image, seed, policy, fuel, fault plan) is
   everything one deterministic invocation needs, so re-executing it is
   written once here: [execute] runs a header into a fresh recording,
   the differential oracle runs every fuzz case through it, and
   [replay] adds the pass verdict that [wasprun --replay] and
   [fuzz_cli --check-fixtures] share. [recorder] is the one way any
   path seeds a recording. *)

module R = Profiler.Replay

let recorder (image : Wasp.Image.t) ~seed ~policy ~fuel ~plan =
  let rc = R.create () in
  R.set_image rc ~name:image.name ~mode:(Vm.Modes.to_string image.mode) ~origin:image.origin
    ~entry:image.entry ~mem_size:image.mem_size ~code:(Bytes.to_string image.code);
  R.set_env rc ?fault_plan:plan ~seed ~policy ~fuel ();
  rc

let finish rc (r : Wasp.Runtime.result) =
  let outcome =
    match r.outcome with Exited _ -> "exited" | Faulted _ -> "faulted" | Fuel_exhausted -> "fuel"
  in
  R.finish rc ~cycles:r.cycles ~outcome ~return_value:r.return_value

(* The fileserver's host environment, rebuilt deterministically: the
   static corpus plus a socket pair already carrying one GET request. *)
let setup_vhttp_env w =
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let client_end, server_end = Wasp.Hostenv.socket_pair (Wasp.Runtime.env w) in
  ignore
    (Wasp.Hostenv.send client_end
       (Bytes.of_string (Vhttp.Fileserver.request_for ~path)));
  (client_end, server_end)

(* The header as a runnable machine: the image exactly as recorded,
   the parsed policy and a freshly armed fault plan. *)
let machine header =
  let image mode : Wasp.Image.t =
    {
      name = R.image_name header;
      code = Bytes.of_string (R.code header);
      origin = R.origin header;
      entry = R.entry header;
      mode;
      mem_size = R.mem_size header;
      symbols = [];
    }
  in
  match (Vm.Modes.of_string (R.mode header), Wasp.Policy.of_string (R.policy header)) with
  | None, _ -> Error (Printf.sprintf "unknown mode %S" (R.mode header))
  | _, Error e -> Error e
  | Some mode, Ok policy -> (
      match R.fault_plan header with
      | None -> Ok (image mode, policy, None)
      | Some text -> (
          match Cycles.Fault_plan.of_string text with
          | Ok plan -> Ok (image mode, policy, Some plan)
          | Error e -> Error ("bad fault plan: " ^ e)))

type run = {
  runtime : Wasp.Runtime.t;
  recording : R.t;
  result : Wasp.Runtime.result option;
}

let execute ?reset ?(runs = 1) ?snapshot_key ?probes ?profiler ?inspect ?flight_capacity
    ~translate header =
  match machine header with
  | Error e -> Error e
  | Ok (image, policy, plan) ->
      let seed = R.seed header and fuel = R.fuel header in
      let w = Wasp.Runtime.create ~seed ~translate ?reset ?flight_capacity () in
      Wasp.Runtime.set_fault_plan w plan;
      Wasp.Runtime.set_probes w probes;
      Wasp.Runtime.set_profiler w profiler;
      let conn =
        if String.starts_with ~prefix:"fileserver" image.name then
          Some (snd (setup_vhttp_env w))
        else None
      in
      let rc =
        recorder image ~seed ~policy:(R.policy header) ~fuel ~plan:(R.fault_plan header)
      in
      Wasp.Runtime.set_recorder w (Some rc);
      let provision_fail_armed =
        match plan with
        | Some p -> List.mem_assoc Kvmsim.Kvm.site_provision_fail (Cycles.Fault_plan.sites p)
        | None -> false
      in
      (* [runs] invocations in order; the last one is the result *)
      let rec invoke n =
        let r = Wasp.Runtime.run w image ~policy ?conn ?snapshot_key ~fuel ?inspect () in
        if n <= 1 then r else invoke (n - 1)
      in
      let result =
        match invoke runs with
        | r ->
            finish rc r;
            Some r
        | exception Kvmsim.Kvm.Injected_failure _ when provision_fail_armed ->
            (* an armed provision_fail is an outcome, not a crash: the
               invocation faulted before its first cycle *)
            R.finish rc ~cycles:0L ~outcome:"faulted" ~return_value:0L;
            None
      in
      Ok { runtime = w; recording = rc; result }

let replay ?probes ?flight_capacity ~translate recorded =
  match execute ?probes ?flight_capacity ~translate recorded with
  | Error e -> Error [ e ]
  | exception e -> Error [ "crashed: " ^ Printexc.to_string e ]
  | Ok { recording; _ } -> (
      match R.diff recorded recording with
      | [] when R.to_string recording = R.to_string recorded -> Ok ()
      | [] -> Error [ "recording text differs byte-for-byte" ]
      | divergences -> Error divergences)
