(* Workload signoff: a cold pipeline from .bench text, one domain, no
   server.  Every op parses a fresh circuit, builds its CSR view, lints
   it, runs the static passes, the SPSTA moment analysis and the flat
   SSTA kernel.  Both analyses take a counting unit-delay hook, so
   engine.gate_evals is exact.

   Output check, once per op and untimed: the flat SSTA result equals the
   record-engine oracle bit for bit at every endpoint, lint reports no
   error, and no gate is unobservable. *)

module Circuit = Spsta_netlist.Circuit
module Static = Spsta_analysis.Static
module Ssta = Spsta_ssta.Ssta
module Normal = Spsta_dist.Normal

let spec = Spsta_experiments.Workloads.spec_fn Spsta_experiments.Workloads.Case_i

type outcome = {
  circuit : Circuit.t;
  static : Static.t;
  findings : Spsta_lint.Lint.finding list;
  sta : Ssta.result;
  evals : int;
}

let op tr text =
  let evals = ref 0 in
  let unit_delay _ =
    incr evals;
    (1.0, 1.0)
  in
  let circuit =
    Span.span tr "netlist.parse" (fun () -> Spsta_netlist.Bench_io.parse_string ~name:"signoff" text)
  in
  ignore (Span.span tr "netlist.csr" (fun () -> Circuit.csr circuit));
  let findings = Span.span tr "lint.check" (fun () -> Spsta_lint.Lint.check_circuit circuit) in
  let static = Span.span tr "analysis.static" (fun () -> Static.run circuit) in
  ignore
    (Span.span tr "spsta.moments" (fun () ->
         Spsta_core.Analyzer.Moments.analyze ~delay_rf:unit_delay circuit ~spec));
  let sta = Span.span tr "ssta.analyze" (fun () -> Ssta.analyze_rf ~delay_rf:unit_delay circuit) in
  { circuit; static; findings; sta; evals = !evals }

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let normal_equal a b =
  bits_equal (Normal.mean a) (Normal.mean b) && bits_equal (Normal.stddev a) (Normal.stddev b)

(* Failure messages; [] when the op's output is right. *)
let check_with ~oracle o =
  let endpoint_ok e =
    let a = Ssta.arrival o.sta e and b = Ssta.arrival oracle e in
    normal_equal a.Ssta.rise b.Ssta.rise && normal_equal a.Ssta.fall b.Ssta.fall
  in
  let bad = List.filter (fun e -> not (endpoint_ok e)) (Circuit.endpoints o.circuit) in
  let unobservable =
    Option.value (List.assoc_opt "unobservable_gates" (Static.fact_counts o.static)) ~default:0
  in
  (if bad = [] then []
   else [ Printf.sprintf "flat SSTA differs from the record oracle at %d endpoints" (List.length bad) ])
  @ (if Spsta_lint.Lint.has_errors o.findings then [ "lint reported errors" ] else [])
  @ if unobservable = 0 then [] else [ Printf.sprintf "%d unobservable gates" unobservable ]

let oracle o = Ssta.analyze_rf ~engine:`Record ~delay_rf:(fun _ -> (1.0, 1.0)) o.circuit

let check o = check_with ~oracle:(oracle o) o

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The [--cold-op] child: one op in a fresh process, its seconds on
   standard output. *)
let cold_op path =
  let text = read_file path in
  let t0 = Unix.gettimeofday () in
  ignore (op (Span.create ()) text);
  Printf.printf "%.17g\n" (Unix.gettimeofday () -. t0)

(* Runs ops until [seconds] have passed and at least [min_ops] ran;
   [each i] runs op [i] and returns its wall seconds. *)
let loop ~seconds ~min_ops each =
  let start = Unix.gettimeofday () in
  let rec go i acc =
    if i >= min_ops && Unix.gettimeofday () -. start >= seconds then (List.rev acc, Unix.gettimeofday () -. start)
    else go (i + 1) (each i :: acc)
  in
  go 0 []

let run ~size ~seed ~seconds ~trace r =
  let dir = Settings.work_dir in
  let design =
    Gen.make ~dir ~seed:(Settings.design_seed ~workload:"signoff" seed) (Settings.signoff_shape size)
  in
  Report.log "design %s: %s" design.Gen.path (Gen.info_to_string design.Gen.info);
  let gates = float_of_int design.Gen.info.Gen.gates in
  let run_op tr i =
    (* every op starts from a compacted heap, so one op's garbage does
       not bill the next one's collections *)
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let o = Span.span ~rid:i tr "signoff.op" (fun () -> op tr design.Gen.bench) in
    let dt = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    Report.attempt r;
    List.iter (Report.fail r "signoff op %d: %s" i) (check o);
    (dt, o.evals, Proc.alloc_words g1 -. Proc.alloc_words g0, float_of_int (g1.major_collections - g0.major_collections))
  in
  if not trace then begin
    let setups =
      List.init (Settings.setup_trials ~workload:"signoff" size) (fun _ ->
          float_of_string (String.trim (Proc.run_capture [ "--cold-op"; design.Gen.path ])))
    in
    let tr = Span.create () in
    (* the first op grows the heap and is slower than the rest; the cold
       cost is setup_s, so it is checked but not timed *)
    let warm_start = Unix.gettimeofday () in
    ignore (run_op tr 0);
    let ops, wall =
      loop ~seconds:(seconds -. (Unix.gettimeofday () -. warm_start)) ~min_ops:3 (fun i -> run_op tr (i + 1))
    in
    let times = List.map (fun (t, _, _, _) -> t) ops in
    Report.log "signoff: %d ops, op times %s s" (List.length ops)
      (String.concat " " (List.map (Printf.sprintf "%.3f") times));
    Report.set r "setup_s" (Quant.median setups);
    Report.set r "gates_per_s" (gates /. Quant.median times);
    Report.set r "latency_p50_ms" (1000.0 *. Quant.median times);
    Report.set r "latency_p99_ms" (1000.0 *. Quant.percentile 99.0 times);
    Report.set r "ops_per_s" (float_of_int (List.length ops) /. wall);
    Report.set r "peak_rss_mb" (Proc.peak_rss_mb 0);
    Report.set r "accuracy_err" (Accuracy.in_process (Accuracy.designs ~dir))
  end
  else begin
    (* Odd ops are traced, even ones not; each traced op is followed by
       every static pass alone, outside the op span. *)
    let tr = Span.create () in
    let passes =
      [ (`Constants, "analysis.constprop"); (`Reconvergence, "analysis.reconvergence");
        (`Observability, "analysis.observability"); (`Criticality, "analysis.crit_bounds") ]
    in
    let ops, _ =
      loop ~seconds ~min_ops:(max 2 (Settings.counter_prefix ~workload:"signoff" size)) (fun i ->
          Span.set_enabled tr (i mod 2 = 1);
          let result = run_op tr i in
          if i mod 2 = 1 then begin
            let circuit = Spsta_netlist.Bench_io.parse_string design.Gen.bench in
            List.iter
              (fun (pass, name) -> ignore (Span.span ~rid:i tr name (fun () -> Static.run ~passes:[ pass ] circuit)))
              passes
          end;
          Span.set_enabled tr false;
          result)
    in
    let prefix = List.filteri (fun i _ -> i < Settings.counter_prefix ~workload:"signoff" size) ops in
    let per_op f = Quant.mean (List.map f prefix) in
    let times parity = List.filteri (fun i _ -> i mod 2 = parity) (List.map (fun (t, _, _, _) -> t) ops) in
    Layers.set_span_medians r tr
      [ ("netlist.parse", "netlist.parse_s", 1.0); ("netlist.csr", "netlist.csr_s", 1.0);
        ("lint.check", "lint.check_s", 1.0); ("analysis.static", "analysis.static_s", 1.0);
        ("analysis.constprop", "analysis.constprop_s", 1.0);
        ("analysis.reconvergence", "analysis.reconvergence_s", 1.0);
        ("analysis.observability", "analysis.observability_s", 1.0);
        ("analysis.crit_bounds", "analysis.crit_bounds_s", 1.0);
        ("spsta.moments", "spsta.moments_s", 1.0); ("ssta.analyze", "ssta.analyze_s", 1.0) ];
    Report.set r "engine.gate_evals" (per_op (fun (_, e, _, _) -> float_of_int e));
    Report.set r "gc.alloc_words_per_op" (per_op (fun (_, _, w, _) -> w));
    Report.set r "gc.major_collections_per_op" (per_op (fun (_, _, _, m) -> m));
    Report.set r "trace.overhead_ratio" (Quant.median (times 1) /. Quant.median (times 0));
    Layers.finish r tr ~root:"signoff.op" ~name:(Printf.sprintf "signoff-%d" seed)
  end
