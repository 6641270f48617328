(* Per-layer metrics from a traced run's spans. *)

let self_times tr name =
  List.filter_map (fun ((s : Span.span), self) -> if s.name = name then Some self else None)
    (Span.self_times tr)

(* [(span name, metric, scale)]: the metric is the median self time of
   that layer's spans, in seconds times [scale].  A layer the run never
   entered stays unset (0 in the result line). *)
let set_span_medians r tr table =
  List.iter
    (fun (span, metric, scale) -> Report.set_median ~scale r metric (self_times tr span))
    table

(* trace.attributed_share: how much of the [root] spans' time the layer
   spans below them account for.  Also writes the Chrome trace and the
   per-layer self-time table. *)
let finish r tr ~root ~name =
  let roots = List.filter (fun ((s : Span.span), _) -> s.name = root) (Span.self_times tr) in
  let total = Quant.sum (List.map (fun (s, _) -> Span.duration s) roots) in
  let unattributed = Quant.sum (List.map snd roots) in
  if total > 0.0 then Report.set r "trace.attributed_share" (1.0 -. (unattributed /. total));
  let path = Filename.concat Settings.work_dir (Printf.sprintf "trace-%s.json" name) in
  Span.write_chrome tr path;
  Report.log "per-layer self time (trace: %s):" path;
  Span.pp_layers stderr tr
