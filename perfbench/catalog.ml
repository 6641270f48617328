(* Every workload and metric the benchmark reports, with the reason each
   exists.  BENCHMARK.json at the repository root mirrors this table
   ([--benchmark-json] prints it; [--self-test] checks they agree), and
   later changes name workloads and metrics by these names.

   Per-layer metrics carry the layer→metric map: which end-to-end metric
   the layer should move, and on which workload.  A layer a workload never
   enters reads 0 there (no time, no work). *)

type workload = { name : string; why : string }

let workloads =
  [ { name = "signoff";
      why =
        "cold parse-lint-static-SPSTA-SSTA pipeline on a 100k-gate design: full sweeps of every \
         kernel and the parser; no protocol, cache or session" };
    { name = "eco-session";
      why =
        "closed-loop ECO mutation stream on a 100k-gate session over the socket: dirty-cone \
         updates, session bookkeeping, codec and transport; full sweeps only in set-up" };
    { name = "serve-mix";
      why =
        "two clients, two workers, seeded analyze/ssta/mc/static/size mix over 15 designs, \
         most requests repeats, keys past memo capacity: hits beside misses, pool and codec" } ]

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option; (* end-to-end metrics only *)
  meaning : string; (* end-to-end: what it is; per-layer: how it is measured *)
  moves : string; (* per-layer: the end-to-end metric it should move *)
  on : string; (* per-layer: the workloads where it should move it *)
}

let e2e name unit better bound meaning =
  { name; unit; better; bound = Some bound; meaning; moves = ""; on = "" }

let layer name unit better meaning moves on =
  { name; unit; better; bound = None; meaning; moves; on }

(* Measured with tracing off.  fail_ratio is not among them: it is 0 on
   a healthy run, and a ratio against a zero median is meaningless; the
   result line's [failed]/[attempted] carry it, and the traced run
   reports it per layer. *)
let end_to_end =
  [ e2e "setup_s" "s" Lower 0.25
      "time before the first op can be served (median of several set-ups): a cold op in a \
       fresh process; server start until the socket accepts (plus the session open)";
    e2e "gates_per_s" "gates/s" Higher 0.25
      "signoff: design gates / median op wall time; server workloads: gates of the designs \
       behind the completed requests, summed, per second of the measured phase";
    e2e "latency_p50_ms" "ms" Lower 0.25 "client-observed op latency, median";
    e2e "latency_p99_ms" "ms" Lower 0.25 "client-observed op latency, 99th percentile";
    e2e "ops_per_s" "ops/s" Higher 0.25 "completed ops per second of the measured phase";
    e2e "peak_rss_mb" "MiB" Lower 0.25
      "peak RSS of the process running the program: the benchmark (signoff) or the server";
    e2e "accuracy_err" "gate_delays" Lower 0.05
      "mean |mu_SPSTA - mu_MC| over the endpoints of three fixed designs answered by both \
       analyze and a 10,000-run mc; deterministic" ]

let per_layer =
  [ layer "netlist.parse_s" "s" Lower "Bench_io.parse_string incl. Builder.finalize, median"
      "gates_per_s; setup_s" "signoff; eco-session";
    layer "netlist.csr_s" "s" Lower "first Circuit.csr on a fresh design" "gates_per_s" "signoff";
    layer "lint.check_s" "s" Lower "Lint.check_circuit" "gates_per_s" "signoff";
    layer "analysis.static_s" "s" Lower "Static.run, all passes (serve-mix: static misses)"
      "gates_per_s" "signoff";
    layer "analysis.constprop_s" "s" Lower "Static.run, constants pass alone" "gates_per_s"
      "signoff";
    layer "analysis.reconvergence_s" "s" Lower "Static.run, reconvergence pass alone"
      "gates_per_s" "signoff";
    layer "analysis.observability_s" "s" Lower "Static.run, observability pass alone"
      "gates_per_s" "signoff";
    layer "analysis.crit_bounds_s" "s" Lower "Static.run, criticality pass alone" "gates_per_s"
      "signoff";
    layer "spsta.moments_s" "s" Lower
      "Analyzer.Moments.analyze (serve-mix: Engine.execute on analyze misses)"
      "gates_per_s; latency_p99_ms" "signoff; serve-mix";
    layer "ssta.analyze_s" "s" Lower "Ssta.analyze_rf, flat kernel (serve-mix: ssta misses)"
      "gates_per_s" "signoff";
    layer "engine.gate_evals" "count" Lower
      "gate evaluations per op through counting delay hooks, over the fixed prefix"
      "every latency" "signoff; eco-session";
    layer "session.mutate_ms" "ms" Lower "Engine.execute on a mutate request (Session.mutate)"
      "latency_p50_ms" "eco-session";
    layer "session.query_ms" "ms" Lower "Engine.execute on a query request (Session.query)"
      "latency_p50_ms" "eco-session";
    layer "session.update_ms" "ms" Lower "update_ms field of mutate responses, median"
      "latency_p50_ms" "eco-session";
    layer "session.dirty_gates" "count" Lower "dirty_gates field of mutate responses, median"
      "latency_p50_ms" "eco-session";
    layer "session.dirty_gates_p90" "count" Lower "dirty_gates field of mutate responses, p90"
      "latency_p99_ms" "eco-session";
    layer "session.open_s" "s" Lower "Engine.execute on the open request" "setup_s"
      "eco-session";
    layer "protocol.decode_us" "us" Lower "Protocol.request_of_line, median" "latency_p50_ms"
      "eco-session; serve-mix";
    layer "protocol.encode_us" "us" Lower "Protocol.response_to_line, median" "latency_p50_ms"
      "eco-session; serve-mix";
    layer "protocol.response_bytes" "bytes" Lower "encoded response line, median"
      "latency_p50_ms" "eco-session; serve-mix";
    layer "transport.overhead_ms" "ms" Lower
      "client latency minus response elapsed_ms over the socket (queue, socket, codec), median"
      "latency_p50_ms" "eco-session";
    layer "server.execute_hit_ms" "ms" Lower
      "response elapsed_ms of requests whose key was answered before, median" "latency_p50_ms"
      "serve-mix";
    layer "server.execute_miss_ms" "ms" Lower
      "response elapsed_ms of requests whose key was not answered before, median"
      "latency_p99_ms" "serve-mix";
    layer "cache.memo_hit_ratio" "ratio" Higher "stats: result hits / lookups" "ops_per_s"
      "serve-mix";
    layer "cache.circuit_hit_ratio" "ratio" Higher "stats: circuit hits / lookups" "ops_per_s"
      "serve-mix";
    layer "cache.memo_evictions" "count" Lower
      "stats: result evictions over the socket phase (as long as an untraced run)" "ops_per_s"
      "serve-mix";
    layer "cache.redundant_computes" "count" Lower
      "stats: result misses - distinct keys requested (racing duplicates, and repeats of \
       evicted keys)" "ops_per_s" "serve-mix";
    layer "cache.memo_hits" "count" Higher "result hits over the fixed in-process prefix"
      "ops_per_s" "serve-mix";
    layer "cache.memo_misses" "count" Lower "result misses over the fixed in-process prefix"
      "ops_per_s" "serve-mix";
    layer "sim.mc_s" "s" Lower "Engine.execute on mc misses (Monte_carlo.simulate), median"
      "latency_p99_ms" "serve-mix";
    layer "opt.sizer_s" "s" Lower "Engine.execute on size misses (Sizer.run), median"
      "latency_p99_ms" "serve-mix";
    layer "gc.alloc_words_per_op" "words" Lower
      "Gc.quick_stat allocated words per op over the fixed prefix"
      "gates_per_s; latency_p50_ms" "all";
    layer "gc.major_collections_per_op" "count" Lower
      "Gc.quick_stat major collections per op over the fixed prefix"
      "gates_per_s; latency_p50_ms" "all";
    layer "trace.overhead_ratio" "ratio" Lower
      "median traced op time / median untraced op time, ops alternating" "-" "all";
    layer "trace.attributed_share" "ratio" Higher
      "share of traced op time covered by layer spans (1 - root self time / root time)" "-"
      "all";
    layer "fail_ratio" "ratio" Lower
      "(errors + timeouts + overloaded + failed output checks) / ops attempted, traced run"
      "-" "all" ]

let better_name = function Higher -> "higher" | Lower -> "lower"

let find_workload name = List.find_opt (fun (w : workload) -> w.name = name) workloads

(* BENCHMARK.json, byte for byte. *)
let benchmark_json () =
  let b = Buffer.create 4096 in
  let str s = Printf.sprintf "%S" s in
  Buffer.add_string b "{\n  \"command\": [\"sh\", \"perfbench/run.sh\"],\n";
  Buffer.add_string b "  \"paths\": [\"perfbench\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n" Settings.run_seconds;
  Buffer.add_string b "  \"workloads\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun (w : workload) -> Printf.sprintf "    {\"name\": %s, \"why\": %s}" (str w.name) (str w.why))
          workloads));
  Buffer.add_string b "\n  ],\n";
  let metric m =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}" (str m.name) (str m.unit)
      (str (better_name m.better))
      (match m.bound with None -> "" | Some x -> Printf.sprintf ", \"bound\": %g" x)
  in
  Buffer.add_string b "  \"end_to_end\": [\n";
  Buffer.add_string b (String.concat ",\n" (List.map metric end_to_end));
  Buffer.add_string b "\n  ],\n  \"per_layer\": [\n";
  Buffer.add_string b (String.concat ",\n" (List.map metric per_layer));
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let print_list oc =
  Printf.fprintf oc "workloads:\n";
  List.iter (fun (w : workload) -> Printf.fprintf oc "  %-12s %s\n" w.name w.why) workloads;
  Printf.fprintf oc "\nend-to-end metrics (tracing off):\n";
  List.iter
    (fun m ->
      Printf.fprintf oc "  %-16s %-12s %-6s bound %-5g %s\n" m.name m.unit (better_name m.better)
        (Option.value m.bound ~default:0.0) m.meaning)
    end_to_end;
  Printf.fprintf oc "\nper-layer metrics (--trace 1): name, unit, moves, on: measured as\n";
  List.iter
    (fun m ->
      Printf.fprintf oc "  %-28s %-6s %-28s %-22s %s\n" m.name m.unit m.moves m.on m.meaning)
    per_layer
