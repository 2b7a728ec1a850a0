type node = {
  name : string;
  node_depth : int;
  order : int;
  mutable count : int;
  mutable total : int64;
  mutable child : int64;  (* cycles of children on the parent's own core *)
  mutable durs : int64 list;
}

(* Rebuild the span tree from (seq, depth): spans arrive in enter order,
   so a span at depth d is a child of the most recent span at depth d-1.
   A child counts against its parent's self time only when both ran on
   the same core: their durations come from the same clock. *)
let aggregate spans =
  let tbl : (string, node) Hashtbl.t = Hashtbl.create 32 in
  let stack = ref [] in
  List.iter
    (fun (s : Span.span) ->
      let rec trim st = if List.length st > s.Span.depth then trim (List.tl st) else st in
      stack := trim !stack;
      (match !stack with
      | (parent, (p : Span.span)) :: _ when p.Span.core = s.Span.core ->
          parent.child <- Int64.add parent.child s.Span.duration
      | _ -> ());
      let path = s.Span.name :: List.map (fun (n, _) -> n.name) !stack in
      let key = String.concat " / " (List.rev path) in
      let n =
        match Hashtbl.find_opt tbl key with
        | Some n ->
            n.count <- n.count + 1;
            n.total <- Int64.add n.total s.Span.duration;
            n.durs <- s.Span.duration :: n.durs;
            n
        | None ->
            let n =
              {
                name = s.Span.name;
                node_depth = s.Span.depth;
                order = s.Span.seq;
                count = 1;
                total = s.Span.duration;
                child = 0L;
                durs = [ s.Span.duration ];
              }
            in
            Hashtbl.add tbl key n;
            n
      in
      stack := (n, s) :: !stack)
    spans;
  Hashtbl.fold (fun _ n acc -> n :: acc) tbl []
  |> List.sort (fun a b -> compare a.order b.order)

let render ?(title = "Telemetry: where did the cycles go") hub =
  let clk = Hub.clock hub in
  let sink = Hub.spans hub in
  let spans = Span.spans sink in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  if spans = [] then Buffer.add_string buf "(no spans recorded)\n"
  else begin
    let nodes = aggregate spans in
    let self n = Int64.sub n.total n.child in
    let wall =
      List.fold_left
        (fun acc n -> if n.node_depth = 0 then Int64.add acc n.total else acc)
        0L nodes
    in
    let pct c =
      if Int64.compare wall 0L <= 0 then "-"
      else Printf.sprintf "%.1f%%" (Int64.to_float c /. Int64.to_float wall *. 100.0)
    in
    let rows =
      List.map
        (fun n ->
          [
            String.make (2 * n.node_depth) ' ' ^ n.name;
            string_of_int n.count;
            Int64.to_string n.total;
            Int64.to_string (self n);
            pct n.total;
            pct (self n);
          ])
        nodes
    in
    Buffer.add_string buf
      (Stats.Report.table
         ~header:[ "span"; "count"; "cycles"; "self"; "% wall"; "% self" ]
         rows);
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Stats.Report.percentile_table ~title:"span latency percentiles" ~unit_label:"us"
         (List.map
            (fun n ->
              ( String.make (2 * n.node_depth) ' ' ^ n.name,
                Array.of_list (List.rev_map (fun c -> Cycles.Clock.to_us clk c) n.durs) ))
            nodes));
    if Span.dropped sink > 0 then
      Buffer.add_string buf
        (Printf.sprintf "(%d items dropped at sink capacity)\n" (Span.dropped sink))
  end;
  (match Metrics.find (Hub.metrics hub) "wasp_invocation_cycles" with
  | Some (Metrics.Histogram h) when h.Metrics.h_count > 0 ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Stats.Report.histogram ~title:"invocation latency distribution (cycles, log2 buckets)"
           (List.map
              (fun (lo, hi, c) -> (Printf.sprintf "[%Ld, %Ld)" lo hi, c))
              (Metrics.nonempty_buckets h)))
  | _ -> ());
  Buffer.contents buf
