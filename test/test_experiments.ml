module Circuit = Spsta_netlist.Circuit
module Experiments = Spsta_experiments

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec at i = i + m <= n && (String.sub haystack i m = needle || at (i + 1)) in
  at 0

let test_benchmarks_suite () =
  Alcotest.(check int) "nine evaluated circuits" 9
    (List.length Experiments.Benchmarks.evaluated_names);
  Alcotest.(check int) "eleven total" 11 (List.length (Experiments.Benchmarks.all ()));
  Alcotest.check_raises "unknown name" Not_found (fun () ->
      ignore (Experiments.Benchmarks.load "s9999"))

let test_c17 () =
  let c = Experiments.Benchmarks.c17 () in
  Alcotest.(check int) "inputs" 5 (List.length (Circuit.primary_inputs c));
  Alcotest.(check int) "outputs" 2 (List.length (Circuit.primary_outputs c));
  Alcotest.(check int) "gates" 6 (Circuit.gate_count c);
  Alcotest.(check int) "all NAND" 6 (Circuit.count_gates_of_kind c Spsta_logic.Gate_kind.Nand);
  Alcotest.(check int) "depth" 3 (Circuit.depth c);
  (* with all inputs one: G10 = NAND(1,1) = 0, G11 = 0, G16 = NAND(1,0) = 1,
     G22 = NAND(0,1) = 1 *)
  let r =
    Spsta_sim.Logic_sim.run c ~source_values:(fun _ -> (Spsta_logic.Value4.One, 0.0))
  in
  let g22 = Circuit.find_exn c "G22" in
  Alcotest.(check bool) "G22 truth" true
    (Spsta_logic.Value4.equal r.Spsta_sim.Logic_sim.values.(g22) Spsta_logic.Value4.One)

let test_benchmark_determinism () =
  let a = Experiments.Benchmarks.load "s344" and b = Experiments.Benchmarks.load "s344" in
  Alcotest.(check string) "stable synthetic netlists"
    (Spsta_netlist.Bench_io.to_string a)
    (Spsta_netlist.Bench_io.to_string b)

let test_workloads () =
  Alcotest.(check int) "two cases" 2 (List.length Experiments.Workloads.all_cases);
  Alcotest.(check string) "case names" "I"
    (Experiments.Workloads.case_name Experiments.Workloads.Case_i);
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_ii 0 in
  Alcotest.(check (float 1e-12)) "case II sp" 0.2 (Spsta_sim.Input_spec.signal_probability spec)

let test_table1_contents () =
  let text = Experiments.Table1.render () in
  Alcotest.(check bool) "AND r/r annotated MAX" true (contains text "r (MAX)");
  Alcotest.(check bool) "AND f/f annotated MIN" true (contains text "f (MIN)");
  Alcotest.(check bool) "both tables rendered" true
    (contains text "AND" && contains text "OR")

let test_fig2_numbers () =
  let r = Experiments.Fig2.run () in
  (* SUM of N(3,1)+N(2,0.5) *)
  Alcotest.(check (float 1e-9)) "sum mean" 5.0 (Spsta_dist.Normal.mean r.Experiments.Fig2.sum_exact);
  (* Clark matches the exact lattice MAX *)
  Alcotest.(check bool) "clark mean close to exact" true
    (Float.abs
       (Spsta_dist.Normal.mean r.Experiments.Fig2.max_clark -. r.Experiments.Fig2.max_exact_mean)
    < 0.01);
  Alcotest.(check bool) "MAX is right-skewed" true (r.Experiments.Fig2.max_skewness > 0.1)

let test_fig3_numbers () =
  let r = Experiments.Fig3.run () in
  Alcotest.(check (float 1e-12)) "P(y)" 0.25 r.Experiments.Fig3.p_output;
  Alcotest.(check (float 1e-12)) "rho(y)" 0.5 r.Experiments.Fig3.rho_output;
  let d1, d2 = r.Experiments.Fig3.boolean_diff_probs in
  Alcotest.(check (float 1e-12)) "P(dy/dx1)" 0.5 d1;
  Alcotest.(check (float 1e-12)) "P(dy/dx2)" 0.5 d2

let test_fig4_shape () =
  let r = Experiments.Fig4.run () in
  (* the paper's point: MAX skews, WEIGHTED SUM stays symmetric *)
  Alcotest.(check bool) "MAX skewed" true
    (Float.abs r.Experiments.Fig4.max_result.Experiments.Fig4.skewness > 0.3);
  Alcotest.(check bool) "WEIGHTED SUM symmetric" true
    (Float.abs r.Experiments.Fig4.weighted_sum_result.Experiments.Fig4.skewness < 0.1);
  Alcotest.(check bool) "rise probability positive" true (r.Experiments.Fig4.rise_probability > 0.0)

let table2_rows ~runs c =
  (Experiments.Table2.measure ~runs ~seed:3 c ~case:Experiments.Workloads.Case_i)
    .Experiments.Table2.rows

let test_table2_row_shape () =
  let c = Experiments.Benchmarks.s27 () in
  let rows = table2_rows ~runs:800 c in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check string) "circuit name" "s27" r.Experiments.Table2.circuit_name;
      Alcotest.(check bool) "probabilities in range" true
        (r.Experiments.Table2.mc.Experiments.Table2.prob >= 0.0
        && r.Experiments.Table2.mc.Experiments.Table2.prob <= 1.0);
      Alcotest.(check bool) "SSTA has no probability" true
        (Float.is_nan r.Experiments.Table2.ssta.Experiments.Table2.prob))
    rows;
  let text = Experiments.Table2.render ~case:Experiments.Workloads.Case_i rows in
  Alcotest.(check bool) "render mentions circuit" true (contains text "s27")

let test_table2_determinism () =
  let c = Experiments.Benchmarks.s27 () in
  let a = table2_rows ~runs:500 c in
  let b = table2_rows ~runs:500 c in
  List.iter2
    (fun x y ->
      Alcotest.(check (float 1e-12)) "same MC mu" x.Experiments.Table2.mc.Experiments.Table2.mu
        y.Experiments.Table2.mc.Experiments.Table2.mu)
    a b

let test_table3_row () =
  let c = Experiments.Benchmarks.s27 () in
  let r = Experiments.Table3.run_circuit ~runs:300 ~seed:3 c ~case:Experiments.Workloads.Case_i in
  Alcotest.(check bool) "non-negative runtimes" true
    (r.Experiments.Table3.spsta_seconds >= 0.0
    && r.Experiments.Table3.ssta_seconds >= 0.0
    && r.Experiments.Table3.mc_seconds >= 0.0);
  Alcotest.(check int) "runs recorded" 300 r.Experiments.Table3.mc_runs

let test_fig1_result () =
  let r =
    Experiments.Fig1.run ~runs:500 ~seed:3 ~circuit:(Experiments.Benchmarks.s27 ())
      ~case:Experiments.Workloads.Case_i ()
  in
  Alcotest.(check bool) "collected chip delays" true (Array.length r.Experiments.Fig1.mc_delays > 0);
  Alcotest.(check bool) "bounds ordered" true
    (r.Experiments.Fig1.sta_earliest <= r.Experiments.Fig1.sta_latest);
  Alcotest.(check bool) "ssta best <= worst" true
    (Spsta_dist.Normal.mean r.Experiments.Fig1.ssta_best
    <= Spsta_dist.Normal.mean r.Experiments.Fig1.ssta_worst);
  (* every observed chip delay respects the STA latest bound *)
  Array.iter
    (fun d ->
      if d > r.Experiments.Fig1.sta_latest +. 1e-9 then
        Alcotest.failf "chip delay %.3f exceeds STA bound %.3f" d r.Experiments.Fig1.sta_latest)
    r.Experiments.Fig1.mc_delays

let test_summary_of_rows () =
  let stats mu sigma prob = { Experiments.Table2.mu; sigma; prob } in
  let row mc_prob =
    {
      Experiments.Table2.circuit_name = "x";
      direction = `Rise;
      endpoint = "e";
      spsta = stats 11.0 2.0 0.1;
      ssta = stats 12.0 0.5 nan;
      mc = stats 10.0 2.0 mc_prob;
    }
  in
  let e = Experiments.Summary.of_rows [ row 0.5; row 0.0001 ] in
  Alcotest.(check int) "low-probability row skipped" 1 e.Experiments.Summary.rows_used;
  Alcotest.(check (float 1e-9)) "spsta mu error" 0.1 e.Experiments.Summary.spsta_mu;
  Alcotest.(check (float 1e-9)) "ssta mu error" 0.2 e.Experiments.Summary.ssta_mu;
  Alcotest.(check (float 1e-9)) "ssta sigma error" 0.75 e.Experiments.Summary.ssta_sigma

let test_runner_ids () =
  Alcotest.(check int) "eight experiments" 8 (List.length Experiments.Runner.experiment_ids);
  Alcotest.(check bool) "unknown id" true
    ( match Experiments.Runner.run "nope" with
    | (_ : string) -> false
    | exception Not_found -> true );
  (* the cheap experiments run end-to-end *)
  List.iter
    (fun id ->
      let out = Experiments.Runner.run ~runs:50 ~seed:1 id in
      Alcotest.(check bool) (id ^ " produces output") true (String.length out > 0))
    [ "table1"; "fig2"; "fig3"; "fig4" ]

let suite =
  [
    Alcotest.test_case "benchmark suite" `Quick test_benchmarks_suite;
    Alcotest.test_case "c17 netlist" `Quick test_c17;
    Alcotest.test_case "benchmark determinism" `Quick test_benchmark_determinism;
    Alcotest.test_case "workloads" `Quick test_workloads;
    Alcotest.test_case "table1 contents" `Quick test_table1_contents;
    Alcotest.test_case "fig2 numbers" `Quick test_fig2_numbers;
    Alcotest.test_case "fig3 numbers" `Quick test_fig3_numbers;
    Alcotest.test_case "fig4 shape" `Quick test_fig4_shape;
    Alcotest.test_case "table2 rows" `Quick test_table2_row_shape;
    Alcotest.test_case "table2 determinism" `Quick test_table2_determinism;
    Alcotest.test_case "table3 row" `Quick test_table3_row;
    Alcotest.test_case "fig1 result" `Quick test_fig1_result;
    Alcotest.test_case "summary arithmetic" `Quick test_summary_of_rows;
    Alcotest.test_case "runner dispatch" `Quick test_runner_ids;
  ]

let test_runner_heavy_smoke () =
  (* the Monte-Carlo-backed experiments run end-to-end at a tiny budget *)
  List.iter
    (fun id ->
      let out = Experiments.Runner.run ~runs:100 ~seed:1 id in
      Alcotest.(check bool) (id ^ " produces output") true (String.length out > 100))
    [ "table2"; "table3"; "fig1" ]

let suite = suite @ [ Alcotest.test_case "runner heavy smoke" `Slow test_runner_heavy_smoke ]
