(* Causal post-mortem for traced runs: group retained spans by trace id,
   rank the trace roots by duration, and render the N slowest as full
   causal timelines — the span tree, the instants (retries, pool events,
   injected faults), the flight-ring exits stamped with the trace, and
   any histogram exemplars that resolve to it. Everything is derived
   from virtual-clock stamps, so the report is byte-identical across
   same-seed runs. *)

let trace_arg args = List.assoc_opt "trace_id" args
let span_arg args = List.assoc_opt "span_id" args
let parent_arg args = List.assoc_opt "parent_id" args

let is_id_arg (k, _) = k = "trace_id" || k = "span_id" || k = "parent_id"

let show_args args =
  match List.filter (fun kv -> not (is_id_arg kv)) args with
  | [] -> ""
  | rest ->
      "  [" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) rest) ^ "]"

type tree = { span : Telemetry.Span.span; children : tree list }

(* Rebuild the parent-link tree of one trace. Spans close child-first,
   but [Span.items] re-sorts by seq (= open order), so a parent always
   precedes its children here. *)
let build_tree spans root =
  let children_of = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match parent_arg s.Telemetry.Span.args with
      | Some pid ->
          let l = try Hashtbl.find children_of pid with Not_found -> [] in
          Hashtbl.replace children_of pid (s :: l)
      | None -> ())
    spans;
  let rec build s =
    let kids =
      match span_arg s.Telemetry.Span.args with
      | None -> []
      | Some sid ->
          (try Hashtbl.find children_of sid with Not_found -> [])
          |> List.sort (fun a b ->
                 compare a.Telemetry.Span.seq b.Telemetry.Span.seq)
    in
    { span = s; children = List.map build kids }
  in
  build root

let render_tree buf ~root_start tree =
  let rec go indent t =
    let s = t.span in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  +%Ld  %Ld cycles  core %d%s\n" indent
         s.Telemetry.Span.name
         (Int64.sub s.Telemetry.Span.start_cycles root_start)
         s.Telemetry.Span.duration s.Telemetry.Span.core
         (show_args s.Telemetry.Span.args));
    List.iter (go (indent ^ "  ")) t.children
  in
  go "  " tree

let conservation buf tree =
  let root = tree.span in
  let child_sum =
    List.fold_left
      (fun acc t -> Int64.add acc t.span.Telemetry.Span.duration)
      0L tree.children
  in
  if tree.children = [] then ()
  else if Int64.equal child_sum root.Telemetry.Span.duration then
    Buffer.add_string buf
      (Printf.sprintf "  conservation: %d children sum to %Ld cycles = root (exact)\n"
         (List.length tree.children) child_sum)
  else
    Buffer.add_string buf
      (Printf.sprintf
         "  conservation: children sum %Ld cycles vs root %Ld (MISMATCH %+Ld)\n"
         child_sum root.Telemetry.Span.duration
         (Int64.sub root.Telemetry.Span.duration child_sum))

let render_instants buf ~root_start instants =
  match instants with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "  events:\n";
      List.iter
        (fun (name, at, args) ->
          Buffer.add_string buf
            (Printf.sprintf "    +%Ld  %s%s\n" (Int64.sub at root_start) name
               (show_args args)))
        instants

let render_flight buf ~trace_hex flight =
  match flight with
  | None -> ()
  | Some fr -> (
      match Telemetry.Tracectx.id_of_string trace_hex with
      | None -> ()
      | Some id ->
          let mine =
            List.filter
              (fun (e : Flight.entry) -> e.Flight.event.Vtrace.Ctx.trace = Some id)
              (Flight.entries fr)
          in
          if mine <> [] then begin
            Buffer.add_string buf "  vm exits (flight ring):\n";
            List.iter
              (fun e ->
                Buffer.add_string buf
                  (Format.asprintf "    %a\n" Flight.pp_entry e))
              mine
          end)

let render_exemplars buf ~trace_hex registry =
  let hits = ref [] in
  List.iter
    (fun m ->
      match m with
      | Telemetry.Metrics.Histogram h ->
          List.iter
            (fun (le, (e : Telemetry.Metrics.exemplar)) ->
              if e.Telemetry.Metrics.e_trace = trace_hex then
                hits :=
                  Printf.sprintf "    %s%s bucket le=%Ld value=%Ld\n"
                    h.Telemetry.Metrics.h_name
                    (match h.Telemetry.Metrics.h_labels with
                    | [] -> ""
                    | labels ->
                        "{"
                        ^ String.concat ","
                            (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") labels)
                        ^ "}")
                    le e.Telemetry.Metrics.e_value
                  :: !hits)
            (Telemetry.Metrics.bucket_exemplars h)
      | Telemetry.Metrics.Counter _ | Telemetry.Metrics.Gauge _ -> ())
    (Telemetry.Metrics.to_list registry);
  match List.rev !hits with
  | [] -> ()
  | lines ->
      Buffer.add_string buf "  exemplars resolving here:\n";
      List.iter (Buffer.add_string buf) lines

let slowest ?(n = 1) ~hub ?flight () =
  let items = Telemetry.Span.items (Telemetry.Hub.spans hub) in
  let spans =
    List.filter_map
      (function Telemetry.Span.Complete s -> Some s | Telemetry.Span.Instant _ -> None)
      items
  in
  let roots =
    List.filter
      (fun s ->
        trace_arg s.Telemetry.Span.args <> None
        && parent_arg s.Telemetry.Span.args = None)
      spans
  in
  if roots = [] then
    "explain: no traced invocations retained (enable tracing and re-run)\n"
  else begin
    let ranked =
      List.stable_sort
        (fun a b ->
          match
            compare b.Telemetry.Span.duration a.Telemetry.Span.duration
          with
          | 0 -> compare a.Telemetry.Span.seq b.Telemetry.Span.seq
          | c -> c)
        roots
    in
    let picked = List.filteri (fun i _ -> i < n) ranked in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf "=== explain: %d slowest of %d traced invocation(s) ===\n"
         (List.length picked) (List.length roots));
    List.iteri
      (fun rank root ->
        let trace_hex =
          match trace_arg root.Telemetry.Span.args with
          | Some id -> id
          | None -> assert false
        in
        let in_trace args = trace_arg args = Some trace_hex in
        let trace_spans =
          List.filter (fun s -> in_trace s.Telemetry.Span.args) spans
        in
        let instants =
          List.filter_map
            (function
              | Telemetry.Span.Instant { i_name; i_at; i_args; _ }
                when in_trace i_args ->
                  Some (i_name, i_at, i_args)
              | _ -> None)
            items
        in
        let root_start = root.Telemetry.Span.start_cycles in
        Buffer.add_string buf
          (Printf.sprintf "\n#%d  trace %s  %Ld cycles  (%d spans, %d events)\n"
             (rank + 1) trace_hex root.Telemetry.Span.duration
             (List.length trace_spans) (List.length instants));
        let tree = build_tree trace_spans root in
        render_tree buf ~root_start tree;
        conservation buf tree;
        render_instants buf ~root_start instants;
        render_flight buf ~trace_hex flight;
        render_exemplars buf ~trace_hex (Telemetry.Hub.metrics hub))
      picked;
    Buffer.add_string buf "=== end explain ===\n";
    Buffer.contents buf
  end
