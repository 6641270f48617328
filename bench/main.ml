(* Benchmark harness: regenerates every table and figure of the paper
   (printed as the paper's rows/series), then times the competing
   analyses with Bechamel.

   Sections, in order:
     TABLE1   four-value logic tables
     FIG2     SUM and MAX basic operations
     FIG3     AND-gate signal probability / toggling rate
     FIG4     MAX vs WEIGHTED SUM distributions
     TABLE2   critical-path statistics, input cases I and II
     FIG1     chip timing distribution vs STA/SSTA views
     TABLE3   wall-clock runtimes per circuit
     SUMMARY  aggregate accuracy vs Monte Carlo (the paper's headline)
     ABLATION t.o.p. backend; correlation handling; process variation
     EXTENSION critical paths; sequential fixed point; chip delay/yield
     ABLATION interconnect loading; cell library; multiple-input
              switching; enclosure comparison (STA / Frechet / affine)
     SCALING  runtime growth up to ~10k-gate profiles
     BECHAMEL micro-benchmarks (one Test.make per table/figure path)

   SPSTA_BENCH_RUNS overrides the Monte Carlo run count (default 10000).

   `--json [PATH]` switches to the machine-readable mode instead: each
   circuit (SPSTA_BENCH_CIRCUITS, comma-separated suite names) is timed
   across the competing engines and the wall-clock results — including
   optimised-vs-baseline grid-kernel and sequential-vs-parallel speedup
   ratios — are written as one JSON document (default BENCH_spsta.json;
   schema spsta-bench/5, documented in doc/perf.md).  Two flags extend
   the json mode with regression tracking (doc/perf.md):

     --history FILE    append a per-commit record of the tracked
                       wall-clock metrics to FILE (JSONL, append-only)
     --compare BASE    compare the fresh results against the BASE
                       document and exit nonzero on any wall-time
                       regression beyond the threshold
     --threshold FRAC  regression threshold as a fraction (default 0.15)

   `--compare BASE CURRENT [--threshold FRAC]` compares two existing
   documents without running anything. *)

module Experiments = Spsta_experiments
module Circuit = Spsta_netlist.Circuit
module Analyzer = Spsta_core.Analyzer
module Monte_carlo = Spsta_sim.Monte_carlo
module Ssta = Spsta_ssta.Ssta
module Propagate = Spsta_engine.Propagate
module Json = Spsta_server.Json

let runs =
  match Sys.getenv_opt "SPSTA_BENCH_RUNS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | Some _ | None -> 10_000 )
  | None -> 10_000

let seed = 42

let section title body =
  Printf.printf "==================== %s ====================\n%!" title;
  body ();
  print_newline ()

let ablation () =
  (* moment backend vs discretised backend: do the two t.o.p.
     representations agree on endpoint moments? *)
  let module B = (val Spsta_core.Top.discrete_backend ~dt:0.05 ()) in
  let module Disc = Analyzer.Make (B) in
  let compare_circuit name =
    let circuit = Experiments.Benchmarks.load name in
    let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
    let moments = Analyzer.Moments.analyze circuit ~spec in
    let disc = Disc.analyze circuit ~spec in
    Printf.printf "%s (endpoint rise stats, moment vs discretised backend):\n" name;
    List.iter
      (fun e ->
        let m_mu, m_sig, m_p =
          Analyzer.Moments.transition_stats (Analyzer.Moments.signal moments e) `Rise
        in
        let d_mu, d_sig, d_p = Disc.transition_stats (Disc.signal disc e) `Rise in
        Printf.printf
          "  %-8s moment: mu %6.3f sig %6.3f P %5.3f | grid: mu %6.3f sig %6.3f P %5.3f\n"
          (Circuit.net_name circuit e) m_mu m_sig m_p d_mu d_sig d_p)
      (Circuit.endpoints circuit)
  in
  compare_circuit "s27";
  compare_circuit "s344"

let correlation_ablation () =
  (* reconvergent-fanout signal probability: eq. 5 vs first-order
     correction vs BDD-exact, on s27 *)
  let circuit = Experiments.Benchmarks.s27 () in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let p_src s = Spsta_sim.Input_spec.signal_probability (spec s) in
  let eq5 = Spsta_core.Signal_prob.compute circuit ~p_source:p_src in
  let corr = Spsta_core.Correlated_prob.compute circuit ~p_source:p_src in
  let exact = Spsta_core.Exact_prob.compute circuit ~spec in
  let sum5 = ref 0.0 and sumc = ref 0.0 and n = ref 0 in
  Array.iter
    (fun g ->
      let reference = Spsta_core.Exact_prob.signal_probability exact g in
      sum5 := !sum5 +. Float.abs (Spsta_core.Signal_prob.prob eq5 g -. reference);
      sumc := !sumc +. Float.abs (Spsta_core.Correlated_prob.prob corr g -. reference);
      incr n)
    (Circuit.topo_gates circuit);
  Printf.printf
    "s27 signal probability, mean |error| vs BDD-exact:\n\
    \  eq. 5 (independence):        %.5f\n\
    \  eq. 15-17 (1st-order corr.): %.5f\n"
    (!sum5 /. float_of_int !n)
    (!sumc /. float_of_int !n)

let process_variation_ablation () =
  (* sweep per-gate delay sigma: SPSTA's predicted endpoint spread vs MC,
     demonstrating that input-statistics variance dominates moderate
     process variance (the paper's motivation point 2) *)
  let circuit = Experiments.Benchmarks.load "s344" in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  Printf.printf "s344, case I, rising critical endpoint under process variation:\n";
  Printf.printf "  %-8s %-22s %-22s\n" "sigma_d" "SPSTA mu/sigma" "MC mu/sigma";
  List.iter
    (fun delay_sigma ->
      let spsta = Analyzer.Moments.analyze ~delay_sigma circuit ~spec in
      let mc = Monte_carlo.simulate ~delay_sigma ~runs:(min runs 5000) ~seed circuit ~spec in
      let e = Analyzer.Moments.critical_endpoint spsta `Rise in
      let s_mu, s_sig, _ = Analyzer.Moments.transition_stats (Analyzer.Moments.signal spsta e) `Rise in
      let stats = Monte_carlo.stats mc e in
      let m_mu = Spsta_util.Stats.acc_mean stats.Monte_carlo.rise_times in
      let m_sig = Spsta_util.Stats.acc_stddev stats.Monte_carlo.rise_times in
      Printf.printf "  %-8.2f %8.3f / %-11.3f %8.3f / %-11.3f\n" delay_sigma s_mu s_sig m_mu m_sig)
    [ 0.0; 0.1; 0.2; 0.4 ]

let paths_section () =
  let circuit = Experiments.Benchmarks.load "s344" in
  let model =
    Spsta_variation.Param_model.create ~sigma_global:0.05 ~sigma_spatial:0.05 ~sigma_random:0.05
      ~grid:4 ()
  in
  let placement = Spsta_variation.Param_model.place model circuit in
  let paths = Spsta_paths.Path_enum.enumerate ~k:6 circuit in
  let stats = Spsta_paths.Path_stats.analyze model placement circuit paths in
  let crit = Spsta_paths.Path_stats.criticality ~samples:(min runs 20_000) stats in
  print_string (Spsta_paths.Path_stats.render circuit ~criticality:crit stats)

let sequential_section () =
  let circuit = Experiments.Benchmarks.s27 () in
  let pi_spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let fp = Spsta_core.Sequential.fixed_point circuit ~pi_spec in
  let sim = Spsta_sim.Sequential_sim.simulate ~cycles:runs ~seed circuit ~pi_spec in
  Printf.printf "s27 steady-state flip-flop statistics (fixed point, %d iterations, %s):\n"
    (Spsta_core.Sequential.iterations fp)
    (if Spsta_core.Sequential.converged fp then "converged" else "NOT converged");
  List.iter
    (fun (qnet, _) ->
      let predicted = Spsta_core.Sequential.ff_final_one fp qnet in
      let s = Spsta_sim.Sequential_sim.stats sim qnet in
      let observed = Monte_carlo.p_one s +. Monte_carlo.p_fall s in
      Printf.printf "  %-6s q_analytic %.4f | q_simulated %.4f\n"
        (Circuit.net_name circuit qnet) predicted observed)
    (Circuit.dffs circuit)

let chip_delay_section () =
  let circuit = Experiments.Benchmarks.load "s344" in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let r = Spsta_core.Chip_delay.compute circuit ~spec in
  Printf.printf
    "s344 chip delay from SPSTA t.o.p. functions (cf. Fig. 1):\n\
    \  idle-cycle probability %.4f, mean %.3f, sigma %.3f\n"
    (Spsta_core.Chip_delay.p_idle r) (Spsta_core.Chip_delay.mean r)
    (Spsta_core.Chip_delay.stddev r);
  List.iter
    (fun target ->
      Printf.printf "  clock for %.1f%% yield: %.3f\n" (100.0 *. target)
        (Spsta_core.Chip_delay.clock_for_yield r target))
    [ 0.9; 0.99; 0.999 ]

let interconnect_ablation () =
  (* unit delays vs Elmore-loaded stage delays on s344, case I *)
  let circuit = Experiments.Benchmarks.load "s344" in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let wires = Spsta_interconnect.Wire_model.build circuit in
  let delay_rf g =
    let d = Spsta_interconnect.Wire_model.stage_delay wires g in
    (d, d)
  in
  let unit_r = Analyzer.Moments.analyze circuit ~spec in
  let loaded_r = Analyzer.Moments.analyze ~delay_rf circuit ~spec in
  let e = Analyzer.Moments.critical_endpoint loaded_r `Rise in
  let u_mu, u_sig, _ = Analyzer.Moments.transition_stats (Analyzer.Moments.signal unit_r e) `Rise in
  let l_mu, l_sig, _ =
    Analyzer.Moments.transition_stats (Analyzer.Moments.signal loaded_r e) `Rise
  in
  Printf.printf
    "s344 critical rise endpoint %s:\n\
    \  unit delays:       mu %.3f sigma %.3f\n\
    \  Elmore wire loads: mu %.3f sigma %.3f (total wire cap %.1f)\n"
    (Circuit.net_name circuit e) u_mu u_sig l_mu l_sig
    (Spsta_interconnect.Wire_model.total_wire_capacitance wires)

let cell_library_ablation () =
  (* unit-delay model vs the characterised library, SPSTA vs MC *)
  let circuit = Experiments.Benchmarks.s27 () in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let lib = Spsta_netlist.Cell_library.default in
  let delay_rf = Spsta_netlist.Cell_library.gate_delays lib circuit in
  let spsta = Analyzer.Moments.analyze ~delay_rf circuit ~spec in
  let rng = Spsta_util.Rng.create ~seed in
  let g17 = Circuit.find_exn circuit "G17" in
  let acc = Spsta_util.Stats.acc_create () in
  let n_rise = ref 0 in
  let trials = min runs 10_000 in
  for _ = 1 to trials do
    let r =
      Spsta_sim.Logic_sim.run ~delay_rf circuit
        ~source_values:(fun s -> Spsta_sim.Input_spec.sample rng (spec s))
    in
    match r.Spsta_sim.Logic_sim.values.(g17) with
    | Spsta_logic.Value4.Rising ->
      incr n_rise;
      Spsta_util.Stats.acc_add acc r.Spsta_sim.Logic_sim.times.(g17)
    | Spsta_logic.Value4.Falling | Spsta_logic.Value4.Zero | Spsta_logic.Value4.One -> ()
  done;
  let mu, sigma, p = Analyzer.Moments.transition_stats (Analyzer.Moments.signal spsta g17) `Rise in
  Printf.printf
    "s27 G17 rising under the characterised cell library (NAND/NOR skewed, fan-in loaded):\n\
    \  SPSTA: P %.3f mu %.3f sigma %.3f\n\
    \  MC:    P %.3f mu %.3f sigma %.3f\n"
    p mu sigma
    (float_of_int !n_rise /. float_of_int trials)
    (Spsta_util.Stats.acc_mean acc) (Spsta_util.Stats.acc_stddev acc)

let mis_ablation () =
  (* the paper's motivating claim: ignoring multiple-input switching
     underestimates mean gate delay; quantify on s386 with a 20% MAX
     slowdown / 20% MIN speedup model applied to both SPSTA and MC *)
  let circuit = Experiments.Benchmarks.load "s386" in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  (* slowdown-only model (toward-non-controlling simultaneity): isolates
     the paper's "ignoring MIS underestimates the mean" direction *)
  let model = Spsta_logic.Mis_model.make ~max_slowdown:0.25 ~min_speedup:0.0 () in
  let endpoints = Circuit.endpoints circuit in
  let report label ?mis () =
    let spsta = Analyzer.Moments.analyze ?mis circuit ~spec in
    let mc = Monte_carlo.simulate ?mis ~runs:(min runs 5000) ~seed circuit ~spec in
    (* aggregate over endpoints with enough MC observations *)
    let n = ref 0 and s_sum = ref 0.0 and m_sum = ref 0.0 in
    List.iter
      (fun e ->
        let stats = Monte_carlo.stats mc e in
        if stats.Monte_carlo.count_rise >= 100 then begin
          incr n;
          let s_mu, _, _ =
            Analyzer.Moments.transition_stats (Analyzer.Moments.signal spsta e) `Rise
          in
          s_sum := !s_sum +. s_mu;
          m_sum := !m_sum +. Spsta_util.Stats.acc_mean stats.Monte_carlo.rise_times
        end)
      endpoints;
    Printf.printf "  %-12s mean rise arrival over %d endpoints: SPSTA %.3f | MC %.3f\n" label !n
      (!s_sum /. float_of_int !n) (!m_sum /. float_of_int !n)
  in
  Printf.printf "s386 with and without a 25%% MAX-slowdown MIS model:\n";
  report "no MIS" ();
  report "MIS on" ~mis:model ()

let enclosure_ablation () =
  (* the paper's Fig. 1 pessimism theme, quantified three ways on s344:
     corner STA, Frechet cdf bounds (ref [1]) and affine interval
     analysis (refs [10, 20]) against the true MC chip-delay range *)
  let circuit = Experiments.Benchmarks.load "s344" in
  let sta =
    Spsta_ssta.Sta.analyze ~input_bounds:{ Spsta_ssta.Sta.earliest = -3.0; latest = 3.0 } circuit
  in
  let frechet =
    Spsta_ssta.Bounds_ssta.quantile_bounds
      (Spsta_ssta.Bounds_ssta.chip_band (Spsta_ssta.Bounds_ssta.analyze circuit))
      0.99
  in
  let affine = Spsta_variation.Interval_sta.analyze ~delay_radius:0.1 circuit in
  let alo, ahi = Spsta_variation.Interval_sta.chip_interval affine in
  let nlo, nhi = Spsta_variation.Interval_sta.naive_chip_interval affine in
  let fig = Experiments.Fig1.run ~runs:(min runs 5000) ~seed ~circuit ~case:Experiments.Workloads.Case_i () in
  Printf.printf
    "s344 chip-delay enclosures (inputs +-3, gate delay 1 +- 0.1 where modelled):\n\
    \  corner STA bound:            [%.2f, %.2f]\n\
    \  Frechet 99%%-quantile band:   [%.2f, %.2f]\n\
    \  affine interval (correlated): [%.2f, %.2f]\n\
    \  naive interval:              [%.2f, %.2f]\n\
    \  actual MC distribution:      mean %.2f sigma %.2f (input-statistics aware)\n"
    (List.fold_left
       (fun acc e -> Float.min acc (Spsta_ssta.Sta.bounds sta e).Spsta_ssta.Sta.earliest)
       infinity (Circuit.endpoints circuit))
    (Spsta_ssta.Sta.max_latest sta)
    (fst frechet) (snd frechet) alo ahi nlo nhi
    (Spsta_util.Stats.mean fig.Experiments.Fig1.mc_delays)
    (Spsta_util.Stats.stddev fig.Experiments.Fig1.mc_delays)

let scaling_section () =
  (* runtime growth with circuit size (the paper's Table 3 claim that
     SPSTA stays linear in the netlist): larger ISCAS'89 profiles with a
     reduced MC budget *)
  let table =
    Spsta_util.Table.create
      ~headers:[ "test"; "gates"; "SPSTA (s)"; "SSTA (s)"; "MC1000 (s)" ]
  in
  let time f =
    let start = Sys.time () in
    let _ = f () in
    Sys.time () -. start
  in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  List.iter
    (fun name ->
      let circuit = Experiments.Benchmarks.load name in
      let t_spsta = time (fun () -> Analyzer.Moments.analyze circuit ~spec) in
      let t_ssta = time (fun () -> Ssta.analyze circuit) in
      let t_mc = time (fun () -> Monte_carlo.simulate ~runs:1000 ~seed circuit ~spec) in
      Spsta_util.Table.add_row table
        [ name; string_of_int (Circuit.gate_count circuit); Printf.sprintf "%.4f" t_spsta;
          Printf.sprintf "%.4f" t_ssta; Printf.sprintf "%.4f" t_mc ])
    [ "s344"; "s1238"; "s5378"; "s9234"; "s15850" ];
  print_endline (Spsta_util.Table.render table)

let bechamel_benchmarks () =
  let open Bechamel in
  let open Toolkit in
  let circuit = Experiments.Benchmarks.load "s344" in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let stage name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      stage "table2/spsta-s344" (fun () -> ignore (Analyzer.Moments.analyze circuit ~spec));
      stage "table2+table3/ssta-s344" (fun () -> ignore (Ssta.analyze circuit));
      stage "table2+table3/mc100-s344" (fun () ->
          ignore (Monte_carlo.simulate ~runs:100 ~seed circuit ~spec));
      stage "table1/value4-tables" (fun () -> ignore (Experiments.Table1.render ()));
      stage "fig1/sta-ssta-views" (fun () ->
          ignore (Experiments.Fig1.run ~runs:50 ~seed ~case:Experiments.Workloads.Case_i ()));
      stage "fig2/sum-max-ops" (fun () -> ignore (Experiments.Fig2.run ()));
      stage "fig3/and-gate" (fun () -> ignore (Experiments.Fig3.run ()));
      stage "fig4/weighted-sum" (fun () -> ignore (Experiments.Fig4.run ()));
      stage "summary/exact-prob-s27" (fun () ->
          ignore (Spsta_core.Exact_prob.compute (Experiments.Benchmarks.s27 ()) ~spec));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Instance.monotonic_clock results
  in
  let report test =
    let stats = analyze (benchmark test) in
    Hashtbl.iter
      (fun name result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-28s %14.1f ns/run\n%!" name est
        | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
      stats
  in
  List.iter report tests

(* ---------- machine-readable mode ---------- *)

let wall f =
  let start = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. start, v)

(* Noise-resistant wall clock.  Sub-millisecond analyses (SSTA on the
   small circuits runs in tens of microseconds) are hopeless to time
   single-shot: timer granularity and scheduler noise dominate.  A
   calibration run picks a repetition count n so one measurement batch
   takes at least [min_batch_s]; the reported time is the minimum over
   at least three batches — more until the batches have spanned
   [measure_budget_s], capped at [max_batches] — divided by n.  Only
   runs whose calibration alone
   exceeds [batch_budget_s] stay single-sample (minutes-long Monte
   Carlo sweeps must not quadruple) — in particular the multi-second
   scale sweeps, which used to report one cold sample carrying CSR
   construction and first-touch page faults, are min-of-3 warm batches
   now.  The total number of timed calls behind each figure is recorded
   next to every entry in the JSON ([timing_n]; 1 flags a
   single-sample entry).

   The [Gc.compact] before calibration is not cosmetic: the
   allocation-heavy entries (the untruncated grid baseline above all)
   are strongly coupled to the heap state the process accumulated
   before the measurement — the same s1238 grid sweep was observed at
   0.13 s after one workload history and 1.17 s after another, a 9x
   swing with identical work.  Compacting first pins every measurement
   to the same (fresh-heap) starting point, which is what makes
   figures comparable across processes, and hence across commits — the
   whole point of the tracked history and the [--compare] gate. *)
let min_batch_s = 0.010
let batch_budget_s = 3.0
let measure_budget_s = 1.0
let max_batches = 10

(* returns (seconds per call, value of the calibration run, total timed calls) *)
let wall_best f =
  Gc.compact ();
  let t0, v = wall f in
  if t0 >= batch_budget_s then (t0, v, 1)
  else begin
    let n =
      if t0 >= min_batch_s then 1
      else int_of_float (ceil (min_batch_s /. Float.max t0 1e-7))
    in
    let batch () =
      Gc.compact ();
      let start = Unix.gettimeofday () in
      for _ = 1 to n do
        ignore (f ())
      done;
      (Unix.gettimeofday () -. start) /. float_of_int n
    in
    (* At least three batches, then keep going until the batches have
       spanned [measure_budget_s] of measured time (or [max_batches]):
       noise on a shared host arrives in sustained bursts, and a
       minimum taken over a longer window is far more likely to catch
       a quiet stretch than three back-to-back samples. *)
    let best = ref infinity in
    let batches = ref 0 in
    let spent = ref 0.0 in
    while
      !batches < 3
      || (!spent < measure_budget_s && !batches < max_batches)
    do
      let t = batch () in
      incr batches;
      spent := !spent +. (t *. float_of_int n);
      if t < !best then best := t
    done;
    (!best, v, !batches * n)
  end

(* Sizing workload.  Two measurements feed the [sizing] JSON section:

   - incremental-vs-full: from a fully analysed sized circuit, one
     trial move as the sizer pays it — [Ssta.copy] of the current
     result plus the dirty-cone [Ssta.update] on one resized gate
     (averaged over the top candidate gates the sizer's inner loop
     actually trials) — against a full [Ssta.analyze] from the same
     state: the speedup the sizer banks on every move evaluation;
   - the greedy sizer itself, recording what it bought (objective and
     area before and after, area recovered by downsizing).  The run
     targets a 20% objective improvement rather than minimising to
     convergence: that bounds the move count, and the slack between the
     target and the best objective reached is what lets the downsize
     phase recover area — an unconstrained run pins the limit to the
     optimum and phase B can rarely move. *)
let sizer_bench_moves = 200
let sizer_bench_target_frac = 0.8

let json_bench_sizing circuit =
  let module Sized = Spsta_netlist.Sized_library in
  let module Transform = Spsta_netlist.Transform in
  let module Criticality = Spsta_opt.Criticality in
  let module Sizer = Spsta_opt.Sizer in
  let module Crit_bounds = Spsta_analysis.Crit_bounds in
  let sized = Sized.default in
  let asg = Sized.initial circuit in
  let delay_rf id = Sized.delay_rf sized circuit asg id in
  let t_full, r0, n_full = wall_best (fun () -> Ssta.analyze ~delay_rf circuit) in
  (* trial gates = what the sizer's inner loop evaluates: the top-ranked
     critical gates with headroom to upsize *)
  let crit = Criticality.of_ssta r0 in
  let candidates =
    let rec take k = function
      | (g, _) :: rest when k > 0 -> g :: take (k - 1) rest
      | _ -> []
    in
    take Sizer.default_config.Sizer.candidates (Criticality.ranked crit)
  in
  let n_cands = List.length candidates in
  (* the trial updates a copy, so [r0] stays the analysis of the
     unresized circuit every candidate starts from *)
  let t_incr_all, _, n_incr =
    wall_best (fun () ->
        List.iter
          (fun g ->
            let dirty = Transform.resize_gate sized circuit asg g ~size:1 in
            Ssta.update ~delay_rf (Ssta.copy r0) ~changed:dirty;
            ignore (Transform.resize_gate sized circuit asg g ~size:0))
          candidates)
  in
  let t_incr = if n_cands > 0 then t_incr_all /. float_of_int n_cands else t_incr_all in
  let target =
    sizer_bench_target_frac *. Criticality.quantile crit Sizer.default_config.Sizer.quantile
  in
  let config =
    { Sizer.default_config with Sizer.max_moves = sizer_bench_moves; target = Some target }
  in
  (* static criticality pruning (lib/analysis): gates no delay
     realisation within the size family's bounds can make critical are
     rejected before phase A spends a trial on them *)
  let t_prune, bounds =
    wall (fun () ->
        Crit_bounds.run
          ~delay_bounds:(fun id -> Crit_bounds.bounds_of_sized sized circuit id)
          circuit)
  in
  let never_critical = Crit_bounds.num_never_critical bounds in
  let t_sizer, report, n_sizer =
    wall_best (fun () ->
        Sizer.run ~config ~prune:(Crit_bounds.never_critical bounds) sized circuit)
  in
  let up_moves, down_moves =
    List.fold_left
      (fun (u, d) (m : Sizer.move) ->
        match m.Sizer.direction with `Up -> (u + 1, d) | `Down -> (u, d + 1))
      (0, 0) report.Sizer.moves
  in
  (* area the downsizing phase clawed back after the upsizing peak *)
  let area_recovered =
    let prev = ref report.Sizer.area_before in
    List.fold_left
      (fun acc (m : Sizer.move) ->
        let delta = !prev -. m.Sizer.area_after in
        prev := m.Sizer.area_after;
        match m.Sizer.direction with `Down -> acc +. delta | `Up -> acc)
      0.0 report.Sizer.moves
  in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  Printf.eprintf
    "           sizing: full %.5fs incr %.6fs (x%.1f) sizer %.3fs (%d up, %d down; \
%d never-critical, %d pruned)\n%!"
    t_full t_incr (ratio t_full t_incr) t_sizer up_moves down_moves never_critical
    report.Sizer.pruned;
  (* Power-recovery workload: the same timing target approached from the
     all-largest assignment, where phase A has nothing to upsize and
     phase B alone claws the area back. *)
  let recovery =
    let from_largest = Sized.uniform sized circuit ~size:(Sized.num_sizes sized - 1) in
    let r = Sizer.run ~config ~initial:from_largest sized circuit in
    let downs =
      List.fold_left
        (fun d (m : Sizer.move) -> match m.Sizer.direction with `Down -> d + 1 | `Up -> d)
        0 r.Sizer.moves
    in
    Printf.eprintf
      "           recovery: area %.1f -> %.1f (%d down moves, objective %.3f -> %.3f)\n%!"
      r.Sizer.area_before r.Sizer.area_after downs r.Sizer.objective_before
      r.Sizer.objective_after;
    Json.Obj
      [ ("objective_q99_before", Json.float r.Sizer.objective_before);
        ("objective_q99_after", Json.float r.Sizer.objective_after);
        ("area_before", Json.float r.Sizer.area_before);
        ("area_after", Json.float r.Sizer.area_after);
        ("area_recovered", Json.float (r.Sizer.area_before -. r.Sizer.area_after));
        ("capacitance_before", Json.float r.Sizer.capacitance_before);
        ("capacitance_after", Json.float r.Sizer.capacitance_after);
        ("down_moves", Json.int downs);
        ("moves", Json.int (List.length r.Sizer.moves));
        ("evaluations", Json.int r.Sizer.evaluations) ]
  in
  Json.Obj
    [ ("full_analysis_s", Json.float t_full);
      ("incremental_update_s", Json.float t_incr);
      ("incremental_speedup", Json.float (ratio t_full t_incr));
      ("sizer_s", Json.float t_sizer);
      ("timing_n",
       Json.Obj
         [ ("full_analysis_s", Json.int n_full);
           ("incremental_update_s", Json.int (n_incr * n_cands));
           ("sizer_s", Json.int n_sizer) ]);
      ("max_moves", Json.int sizer_bench_moves);
      ("target", Json.float target);
      ("moves", Json.int (List.length report.Sizer.moves));
      ("up_moves", Json.int up_moves);
      ("down_moves", Json.int down_moves);
      ("evaluations", Json.int report.Sizer.evaluations);
      ("static_prune_s", Json.float t_prune);
      ("never_critical", Json.int never_critical);
      ("pruned", Json.int report.Sizer.pruned);
      ("objective_q99_before", Json.float report.Sizer.objective_before);
      ("objective_q99_after", Json.float report.Sizer.objective_after);
      ("area_before", Json.float report.Sizer.area_before);
      ("area_after", Json.float report.Sizer.area_after);
      ("area_recovered", Json.float area_recovered);
      ("capacitance_before", Json.float report.Sizer.capacitance_before);
      ("capacitance_after", Json.float report.Sizer.capacitance_after);
      ("recovery", recovery) ]

(* Per-circuit timings of the competing engines.  The grid backend is
   measured twice from the same inputs in the same process: once with
   the epsilon-truncation and kernel-cache optimisations disabled (the
   pre-optimisation baseline) and once as configured by default — the
   ratio isolates the kernel work, not machine noise across runs.  The
   parallel variants use the machine's recommended domain count; on a
   single-core host they degenerate to the sequential timings. *)
let json_bench_circuit ~mc_runs ~domains name =
  let circuit = Experiments.Benchmarks.load name in
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let dt = 0.1 and delay_sigma = 0.4 in
  let grid_run backend_domains (module B : Spsta_core.Top.BACKEND
        with type top = Spsta_dist.Discrete.t) =
    let module D = Analyzer.Make (B) in
    let r = D.analyze ~delay_sigma ~domains:backend_domains circuit ~spec in
    let e = D.critical_endpoint r `Rise in
    let s = D.signal r e in
    (D.transition_stats s `Rise, Spsta_dist.Discrete.dropped_mass s.D.rise)
  in
  let baseline_backend = Spsta_core.Top.discrete_backend ~truncate_eps:0.0 ~cache_normals:false ~dt () in
  let opt_backend = Spsta_core.Top.discrete_backend ~dt () in
  let t_grid_baseline, (baseline_stats, _), n_grid_baseline =
    wall_best (fun () -> grid_run 1 baseline_backend)
  in
  let t_grid, (opt_stats, dropped), n_grid = wall_best (fun () -> grid_run 1 opt_backend) in
  let t_grid_par, _, n_grid_par = wall_best (fun () -> grid_run domains opt_backend) in
  let t_moment, _, n_moment =
    wall_best (fun () -> Analyzer.Moments.analyze ~delay_sigma circuit ~spec)
  in
  let t_moment_par, _, n_moment_par =
    wall_best (fun () -> Analyzer.Moments.analyze ~delay_sigma ~domains circuit ~spec)
  in
  let t_ssta, _, n_ssta = wall_best (fun () -> Ssta.analyze circuit) in
  let t_ssta_par, _, n_ssta_par = wall_best (fun () -> Ssta.analyze ~domains circuit) in
  let t_mc, mc_scalar, n_mc =
    wall_best (fun () ->
        Monte_carlo.simulate_scalar ~runs:mc_runs ~domains:1 ~seed circuit ~spec)
  in
  let t_mc_par, _, n_mc_par =
    wall_best (fun () ->
        Monte_carlo.simulate_scalar ~runs:mc_runs ~domains ~seed circuit ~spec)
  in
  let t_mc_packed, mc_packed, n_mc_packed =
    wall_best (fun () -> Monte_carlo.simulate ~runs:mc_runs ~seed circuit ~spec)
  in
  let t_mc_packed_par, _, n_mc_packed_par =
    wall_best (fun () ->
        Monte_carlo.simulate ~runs:mc_runs ~domains ~seed circuit ~spec)
  in
  (* cross-engine fidelity: the packed engine must reproduce the scalar
     reference exactly — equal per-net counts and bit-equal Welford
     accumulators *)
  let mc_counts_equal, mc_stats_equal =
    let counts = ref true and stats = ref true in
    let acc_eq (p : Spsta_util.Stats.acc) (q : Spsta_util.Stats.acc) =
      p.Spsta_util.Stats.n = q.Spsta_util.Stats.n
      && p.Spsta_util.Stats.mu = q.Spsta_util.Stats.mu
      && p.Spsta_util.Stats.m2 = q.Spsta_util.Stats.m2
      && p.Spsta_util.Stats.lo = q.Spsta_util.Stats.lo
      && p.Spsta_util.Stats.hi = q.Spsta_util.Stats.hi
    in
    Array.iteri
      (fun i (x : Monte_carlo.net_stats) ->
        let y = mc_packed.Monte_carlo.per_net.(i) in
        if
          not
            (x.Monte_carlo.count_zero = y.Monte_carlo.count_zero
            && x.Monte_carlo.count_one = y.Monte_carlo.count_one
            && x.Monte_carlo.count_rise = y.Monte_carlo.count_rise
            && x.Monte_carlo.count_fall = y.Monte_carlo.count_fall)
        then counts := false;
        if
          not
            (acc_eq x.Monte_carlo.rise_times y.Monte_carlo.rise_times
            && acc_eq x.Monte_carlo.fall_times y.Monte_carlo.fall_times)
        then stats := false)
      mc_scalar.Monte_carlo.per_net;
    (!counts, !stats)
  in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  let (b_mu, b_sig, b_p) = baseline_stats and (o_mu, o_sig, o_p) = opt_stats in
  Printf.eprintf
    "  %-8s grid %.3fs (baseline %.3fs, x%.2f) moment %.3fs mc %.3fs (packed %.3fs, x%.2f)\n%!"
    name t_grid t_grid_baseline (ratio t_grid_baseline t_grid) t_moment t_mc t_mc_packed
    (ratio t_mc t_mc_packed);
  Json.Obj
    [ ("name", Json.string name);
      ("gates", Json.int (Circuit.gate_count circuit));
      ("depth", Json.int (Circuit.depth circuit));
      ("timings_s",
       Json.Obj
         [ ("spsta_moment", Json.float t_moment);
           ("spsta_moment_parallel", Json.float t_moment_par);
           ("spsta_grid_baseline", Json.float t_grid_baseline);
           ("spsta_grid", Json.float t_grid);
           ("spsta_grid_parallel", Json.float t_grid_par);
           ("ssta", Json.float t_ssta);
           ("ssta_parallel", Json.float t_ssta_par);
           ("mc", Json.float t_mc);
           ("mc_parallel", Json.float t_mc_par);
           ("mc_packed", Json.float t_mc_packed);
           ("mc_packed_parallel", Json.float t_mc_packed_par) ]);
      (* total timed calls behind each timings_s entry: min over three
         batches of calls sized to span at least 10 ms each; 1 flags a
         single-sample entry beyond the batch budget *)
      ("timing_n",
       Json.Obj
         [ ("spsta_moment", Json.int n_moment);
           ("spsta_moment_parallel", Json.int n_moment_par);
           ("spsta_grid_baseline", Json.int n_grid_baseline);
           ("spsta_grid", Json.int n_grid);
           ("spsta_grid_parallel", Json.int n_grid_par);
           ("ssta", Json.int n_ssta);
           ("ssta_parallel", Json.int n_ssta_par);
           ("mc", Json.int n_mc);
           ("mc_parallel", Json.int n_mc_par);
           ("mc_packed", Json.int n_mc_packed);
           ("mc_packed_parallel", Json.int n_mc_packed_par) ]);
      ("speedups",
       Json.Obj
         [ ("grid_kernels", Json.float (ratio t_grid_baseline t_grid));
           ("grid_domains", Json.float (ratio t_grid t_grid_par));
           ("moment_domains", Json.float (ratio t_moment t_moment_par));
           ("ssta_domains", Json.float (ratio t_ssta t_ssta_par));
           ("mc_domains", Json.float (ratio t_mc t_mc_par));
           ("mc_packed_speedup", Json.float (ratio t_mc t_mc_packed));
           ("mc_packed_domains", Json.float (ratio t_mc_packed t_mc_packed_par)) ]);
      (* engine-fidelity check: the packed bit-parallel engine must equal
         the scalar oracle exactly at the same (runs, seed) *)
      ("mc_fidelity",
       Json.Obj
         [ ("counts_equal", Json.bool mc_counts_equal);
           ("stats_equal", Json.bool mc_stats_equal) ]);
      (* optimisation-fidelity check: the truncated grid's critical
         endpoint must match the exact baseline to well within eps *)
      ("grid_fidelity",
       Json.Obj
         [ ("critical_rise_p_err", Json.float (Float.abs (b_p -. o_p)));
           ("critical_rise_mean_err", Json.float (Float.abs (b_mu -. o_mu)));
           ("critical_rise_sigma_err", Json.float (Float.abs (b_sig -. o_sig)));
           ("dropped_mass", Json.float dropped) ]);
      ("sizing", json_bench_sizing circuit) ]

(* ---------- scale section: the 100k / 1M-gate generated profiles ----------

   Wall-clock at netlist sizes where asymptotics, not constants, decide
   the outcome: generation, full SSTA (sequential and across the domain
   pool), and the dirty-cone incremental update against the full-sweep
   baseline it replaces.  The grid/moment engines only run at c100k —
   at a million gates they are minutes-long and the scale story they'd
   tell is the same.  Domain speedups here are honest measurements on
   the current host; on a single-core machine they sit near 1.0 by
   construction (see doc/perf.md). *)

let scale_dirty_cone circuit root = Array.length (Propagate.dirty_cone circuit ~changed:[ root ])

let scale_profile name =
  match Spsta_netlist.Generator.find_profile name with
  | Some p -> p
  | None -> failwith (Printf.sprintf "unknown scale profile %s" name)

let json_bench_scale ~domains name =
  let profile = scale_profile name in
  let t_gen, circuit = wall (fun () -> Spsta_netlist.Generator.generate profile) in
  let gates = Circuit.gate_count circuit in
  (* reading the design back from its .bench text: the reader and the
     builder's finalize, the text written outside the timer *)
  let t_parse, _, n_parse =
    let text = Spsta_netlist.Bench_io.to_string circuit in
    wall_best (fun () -> Spsta_netlist.Bench_io.parse_string text)
  in
  let t_ssta, r0, n_ssta = wall_best (fun () -> Ssta.analyze circuit) in
  let t_ssta_par, _, n_ssta_par = wall_best (fun () -> Ssta.analyze ~domains circuit) in
  (* two incremental workloads: a mid-topo gate flip (the sizer's move
     evaluation — typically a tiny cone) and a primary-input re-seed
     (the sequential-iteration workload — a larger cone) *)
  let topo = Circuit.topo_gates circuit in
  let root = topo.(Array.length topo / 2) in
  let dirty_gates = scale_dirty_cone circuit root in
  (* the in-place update a session pays per mutation, on a copy made
     outside the timer; re-running it on unchanged inputs rewrites the
     same values, so every timed repetition does identical work *)
  let live = Ssta.copy r0 in
  let t_upd, _, n_upd = wall_best (fun () -> Ssta.update live ~changed:[ root ]) in
  let src_root = List.hd (Circuit.sources circuit) in
  let src_dirty = scale_dirty_cone circuit src_root in
  let t_src_upd, _, n_src_upd = wall_best (fun () -> Ssta.update live ~changed:[ src_root ]) in
  (* the structural+dataflow lint sweep and the full static-analysis
     pass stack (lib/analysis) at scale — both single-core, both pure
     functions of the circuit *)
  let t_lint, findings, n_lint =
    wall_best (fun () -> Spsta_lint.Lint.check_circuit circuit)
  in
  let t_static, static, n_static =
    wall_best (fun () -> Spsta_analysis.Static.run circuit)
  in
  let fact_fields =
    List.map
      (fun (name, count) -> (name, Json.int count))
      (Spsta_analysis.Static.fact_counts static)
  in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  (* the paper's own analysis at every scale, on the flat moment kernel *)
  let spec = Experiments.Workloads.spec_fn Experiments.Workloads.Case_i in
  let t_moment, _, n_moment = wall_best (fun () -> Analyzer.Moments.analyze circuit ~spec) in
  let t_moment_par, _, n_moment_par =
    wall_best (fun () -> Analyzer.Moments.analyze ~domains circuit ~spec)
  in
  let moment_fields =
    [ ("moment_s", Json.float t_moment);
      ("moment_parallel_s", Json.float t_moment_par);
      ("moment_domains", Json.float (ratio t_moment t_moment_par));
      ("moment_n", Json.int n_moment);
      ("moment_parallel_n", Json.int n_moment_par) ]
  in
  Printf.eprintf
    "  %-8s gen %.2fs parse %.3fs ssta %.3fs (par %.3fs, x%.2f) update %.5fs (x%.0f, %d dirty) \
src-update %.5fs (x%.0f, %d dirty) lint %.3fs (%d findings) static %.3fs (%d facts) \
moment %.3fs (par %.3fs)\n%!"
    name t_gen t_parse t_ssta t_ssta_par (ratio t_ssta t_ssta_par) t_upd (ratio t_ssta t_upd)
    dirty_gates t_src_upd (ratio t_ssta t_src_upd) src_dirty t_lint (List.length findings)
    t_static
    (Spsta_analysis.Static.total_facts static)
    t_moment t_moment_par;
  Json.Obj
    ([ ("name", Json.string name);
       ("gates", Json.int gates);
       ("depth", Json.int (Circuit.depth circuit));
       ("generate_s", Json.float t_gen);
       ("parse_s", Json.float t_parse);
       ("ssta_s", Json.float t_ssta);
       ("ssta_parallel_s", Json.float t_ssta_par);
       ("ssta_domains", Json.float (ratio t_ssta t_ssta_par));
       ("incremental_update_s", Json.float t_upd);
       ("incremental_speedup", Json.float (ratio t_ssta t_upd));
       ("dirty_gates", Json.int dirty_gates);
       ("source_update_s", Json.float t_src_upd);
       ("source_update_speedup", Json.float (ratio t_ssta t_src_upd));
       ("source_dirty_gates", Json.int src_dirty);
       ("lint_s", Json.float t_lint);
       ("lint_findings", Json.int (List.length findings));
       ("static_s", Json.float t_static);
       ("static_facts", Json.Obj fact_fields);
       ("timing_n",
        Json.Obj
          [ ("parse_s", Json.int n_parse);
            ("ssta_s", Json.int n_ssta);
            ("ssta_parallel_s", Json.int n_ssta_par);
            ("incremental_update_s", Json.int n_upd);
            ("source_update_s", Json.int n_src_upd);
            ("lint_s", Json.int n_lint);
            ("static_s", Json.int n_static) ]) ]
    @ moment_fields)

let scale_names () =
  match Sys.getenv_opt "SPSTA_BENCH_SCALE" with
  | None -> [ "c100k"; "c1000k" ]
  | Some s -> (
    match String.trim s with
    | "" | "0" | "off" -> []
    | "1" | "on" -> [ "c100k"; "c1000k" ]
    | s ->
      String.split_on_char ',' s |> List.map String.trim |> List.filter (fun s -> s <> ""))

let json_mode path =
  let circuits =
    match Sys.getenv_opt "SPSTA_BENCH_CIRCUITS" with
    | Some s when String.trim s <> "" ->
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    | Some _ | None -> [ "s344"; "s1238"; "s5378" ]
  in
  let mc_runs = min runs 2_000 in
  let domains = Spsta_util.Parallel.default_domains () in
  let scale = scale_names () in
  Printf.eprintf "bench json mode: %s (mc runs %d, %d domains; scale: %s)\n%!"
    (String.concat ", " circuits) mc_runs domains
    (if scale = [] then "off" else String.concat ", " scale);
  let doc =
    Json.Obj
      [ ("schema", Json.string "spsta-bench/5");
        ("mc_runs", Json.int mc_runs);
        ("seed", Json.int seed);
        ("domains", Json.int domains);
        ("host_cores", Json.int (Domain.recommended_domain_count ()));
        ("circuits", Json.List (List.map (json_bench_circuit ~mc_runs ~domains) circuits));
        ("scale", Json.List (List.map (json_bench_scale ~domains) scale)) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n%!" path;
  doc

(* Bounded CI gate for the scale work (`make scale-smoke`): c100k must
   generate and analyze inside generous wall-time budgets, the pooled
   sweep must be bit-identical to the sequential one, and the dirty-cone
   update must beat the full sweep by a wide margin.  The ?domains
   speedup floor is guarded by the host's core count — a single-core
   runner cannot speed anything up and is not asked to. *)
let scale_smoke () =
  let failed = ref false in
  let check name ok detail =
    Printf.printf "%s  %-42s %s\n%!" (if ok then "PASS" else "FAIL") name detail;
    if not ok then failed := true
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "scale smoke: c100k on %d core(s)\n%!" cores;
  let t_gen, circuit = wall (fun () -> Spsta_netlist.Generator.generate (scale_profile "c100k")) in
  check "generation under 60 s" (t_gen < 60.0) (Printf.sprintf "%.2fs" t_gen);
  let t_ssta, r_seq, _ = wall_best (fun () -> Ssta.analyze circuit) in
  check "ssta under 10 s" (t_ssta < 10.0) (Printf.sprintf "%.3fs" t_ssta);
  (* pooled schedule must be bit-identical to the sequential sweep *)
  let domains = if cores >= 4 then 4 else max 2 cores in
  let r_par = Ssta.analyze ~domains circuit in
  let identical = ref true in
  for i = 0 to Circuit.num_nets circuit - 1 do
    let a = Ssta.arrival r_seq i and b = Ssta.arrival r_par i in
    let eq n m =
      Spsta_dist.Normal.mean n = Spsta_dist.Normal.mean m
      && Spsta_dist.Normal.stddev n = Spsta_dist.Normal.stddev m
    in
    if not (eq a.Ssta.rise b.Ssta.rise && eq a.Ssta.fall b.Ssta.fall) then identical := false
  done;
  check
    (Printf.sprintf "bit-identical at domains=%d" domains)
    !identical
    (Printf.sprintf "%d nets" (Circuit.num_nets circuit));
  (* speedup floor, guarded by what the host can physically deliver *)
  (if cores >= 2 then begin
     let t_par, _, _ = wall_best (fun () -> Ssta.analyze ~domains circuit) in
     let speedup = if t_par > 0.0 then t_ssta /. t_par else 0.0 in
     let floor = if cores >= 4 then 1.5 else 1.05 in
     check
       (Printf.sprintf "ssta domains=%d speedup >= %.2f" domains floor)
       (speedup >= floor)
       (Printf.sprintf "x%.2f" speedup)
   end
   else Printf.printf "SKIP  %-42s single-core host\n%!" "ssta ?domains speedup floor");
  (* dirty-cone incremental update vs the full sweep it replaces: a
     single-gate flip, refined in place as sessions pay it.  The
     absolute bound is the complementary guard: a cone update must stay
     in single-digit milliseconds at 100k gates or the per-mutation
     economics break regardless of the ratio. *)
  let topo = Circuit.topo_gates circuit in
  let root = topo.(Array.length topo / 2) in
  let t_upd, _, _ = wall_best (fun () -> Ssta.update r_seq ~changed:[ root ]) in
  let speedup = if t_upd > 0.0 then t_ssta /. t_upd else 0.0 in
  check "incremental update speedup >= 20"
    (speedup >= 20.0)
    (Printf.sprintf "x%.0f (%d dirty gates)" speedup (scale_dirty_cone circuit root));
  check "incremental update under 10 ms" (t_upd < 0.010)
    (Printf.sprintf "%.4fs" t_upd);
  (* the full static-analysis stack (ISSUE acceptance: all four passes
     combined under 1 s single-core at c100k, bit-deterministic) *)
  let module Static = Spsta_analysis.Static in
  let t_static, s1, _ = wall_best (fun () -> Static.run circuit) in
  check "static passes under 1 s" (t_static < 1.0) (Printf.sprintf "%.3fs" t_static);
  (* the signoff order: lint runs its own reconvergence pass, then the
     static stack runs it again, so this pair guards the region walk *)
  let t_layer, _, _ =
    wall_best (fun () ->
        ignore (Spsta_lint.Lint.check_circuit circuit);
        Static.run circuit)
  in
  check "lint + static under 1 s" (t_layer < 1.0) (Printf.sprintf "%.3fs" t_layer);
  let s2 = Static.run circuit in
  let regions t =
    match t.Static.reconvergence with
    | None -> []
    | Some r -> Spsta_analysis.Reconvergence.regions r
  in
  check "static run-twice deterministic"
    (Static.fact_counts s1 = Static.fact_counts s2 && regions s1 = regions s2)
    (Printf.sprintf "%d facts" (Static.total_facts s1));
  if !failed then exit 1

(* ---------- regression tracking (lib/server/bench_track.ml) ---------- *)

module Bench_track = Spsta_server.Bench_track

let read_doc path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Json.of_string_opt text with
  | Some doc -> doc
  | None ->
    Printf.eprintf "error: %s is not valid JSON\n%!" path;
    exit 2

let commit_id () =
  match Sys.getenv_opt "SPSTA_BENCH_COMMIT" with
  | Some c when String.trim c <> "" -> String.trim c
  | Some _ | None -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
    with _ -> "unknown")

let utc_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* prints the verdict; true iff no metric regressed beyond the threshold *)
let report_compare ~threshold ~base_path base current =
  let compared, regressions = Bench_track.compare_docs ~threshold ~base ~current () in
  Printf.eprintf "compare vs %s: %d metrics within +%.0f%%, %d regressed\n%!" base_path
    (compared - List.length regressions)
    (100.0 *. threshold) (List.length regressions);
  List.iter
    (fun (r : Bench_track.regression) ->
      Printf.eprintf "  REGRESSED %-36s %.4fs -> %.4fs (x%.2f)\n%!" r.Bench_track.metric
        r.Bench_track.base_s r.Bench_track.current_s r.Bench_track.ratio)
    regressions;
  regressions = []

type json_opts = {
  mutable out : string;
  mutable history : string option;
  mutable base : string option;
  mutable threshold : float;
}

let bad_usage () =
  Printf.eprintf
    "usage: %s [--json [PATH] [--history FILE] [--compare BASE] [--threshold FRAC]]\n\
    \       %s --compare BASE CURRENT [--threshold FRAC]\n\
    \       %s --scale-smoke\n%!"
    Sys.argv.(0) Sys.argv.(0) Sys.argv.(0);
  exit 2

let parse_threshold s =
  match float_of_string_opt s with
  | Some x when x > 0.0 -> x
  | Some _ | None ->
    Printf.eprintf "error: --threshold wants a positive fraction, got %s\n%!" s;
    exit 2

let json_cli rest =
  let o = { out = "BENCH_spsta.json"; history = None; base = None; threshold = Bench_track.default_threshold } in
  let rec parse = function
    | [] -> ()
    | "--history" :: file :: rest ->
      o.history <- Some file;
      parse rest
    | "--compare" :: base :: rest ->
      o.base <- Some base;
      parse rest
    | "--threshold" :: t :: rest ->
      o.threshold <- parse_threshold t;
      parse rest
    | path :: rest when String.length path > 0 && path.[0] <> '-' ->
      o.out <- path;
      parse rest
    | _ -> bad_usage ()
  in
  parse rest;
  (* read the baseline before the long run so a bad path fails fast *)
  let base = Option.map (fun p -> (p, read_doc p)) o.base in
  let doc = json_mode o.out in
  Option.iter
    (fun path ->
      Bench_track.append_history ~path
        (Bench_track.history_record ~commit:(commit_id ()) ~utc:(utc_now ()) doc);
      Printf.eprintf "appended history record to %s\n%!" path)
    o.history;
  match base with
  | None -> exit 0
  | Some (base_path, base) ->
    if report_compare ~threshold:o.threshold ~base_path base doc then exit 0
    else begin
      (* Confirm-on-fail: one flagged metric out of ~30 is as likely a
         sustained scheduler burst on a shared host as a real
         regression.  Re-measure the whole suite once (minutes later,
         so a burst has moved on) and fail only on metrics that regress
         in BOTH independent runs — a real regression reproduces by
         definition.  The re-measured document replaces the output
         file; the history keeps the first run's record only. *)
      Printf.eprintf "re-measuring to separate interference from real regressions...\n%!";
      let doc2 = json_mode o.out in
      let regressed_in d =
        let _, rs = Bench_track.compare_docs ~threshold:o.threshold ~base ~current:d () in
        rs
      in
      let second = regressed_in doc2 in
      let persistent =
        List.filter
          (fun (r : Bench_track.regression) ->
            List.exists
              (fun (r2 : Bench_track.regression) -> r2.Bench_track.metric = r.Bench_track.metric)
              second)
          (regressed_in doc)
      in
      match persistent with
      | [] ->
        Printf.eprintf "no regression reproduced on re-measurement; passing\n%!";
        exit 0
      | rs ->
        Printf.eprintf "%d regression(s) reproduced across both runs:\n%!" (List.length rs);
        List.iter
          (fun (r : Bench_track.regression) ->
            Printf.eprintf "  REGRESSED %-36s %.4fs -> %.4fs (x%.2f)\n%!" r.Bench_track.metric
              r.Bench_track.base_s r.Bench_track.current_s r.Bench_track.ratio)
          rs;
        exit 1
    end

let compare_cli rest =
  let threshold, rest =
    match rest with
    | b :: c :: "--threshold" :: t :: [] -> (parse_threshold t, [ b; c ])
    | rest -> (Bench_track.default_threshold, rest)
  in
  match rest with
  | [ base_path; current_path ] ->
    let base = read_doc base_path and current = read_doc current_path in
    exit (if report_compare ~threshold ~base_path base current then 0 else 1)
  | _ -> bad_usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "--json" :: rest -> json_cli rest
  | _ :: "--compare" :: rest -> compare_cli rest
  | _ :: "--scale-smoke" :: _ ->
    scale_smoke ();
    exit 0
  | _ -> ()

let () =
  section "TABLE1" (fun () -> print_string (Experiments.Table1.render ()));
  section "FIG2" (fun () -> print_string (Experiments.Fig2.render (Experiments.Fig2.run ())));
  section "FIG3" (fun () -> print_string (Experiments.Fig3.render (Experiments.Fig3.run ())));
  section "FIG4" (fun () -> print_string (Experiments.Fig4.render (Experiments.Fig4.run ())));
  section "TABLE2" (fun () ->
      List.iter
        (fun case ->
          print_string
            (Experiments.Table2.render ~case (Experiments.Table2.run_suite ~runs ~seed ~case ()));
          print_newline ())
        Experiments.Workloads.all_cases);
  section "FIG1" (fun () ->
      print_string
        (Experiments.Fig1.render
           (Experiments.Fig1.run ~runs ~seed ~case:Experiments.Workloads.Case_i ())));
  section "TABLE3" (fun () ->
      print_string
        (Experiments.Table3.render
           (Experiments.Table3.run_suite ~runs ~seed ~case:Experiments.Workloads.Case_i ())));
  section "SUMMARY" (fun () ->
      print_string (Experiments.Summary.render (Experiments.Summary.run ~runs ~seed ())));
  section "ABLATION: t.o.p. backend" ablation;
  section "ABLATION: correlation handling" correlation_ablation;
  section "ABLATION: process variation" process_variation_ablation;
  section "EXTENSION: critical paths" paths_section;
  section "EXTENSION: sequential fixed point" sequential_section;
  section "EXTENSION: chip delay / yield" chip_delay_section;
  section "ABLATION: interconnect loading" interconnect_ablation;
  section "ABLATION: cell library" cell_library_ablation;
  section "ABLATION: multiple-input switching" mis_ablation;
  section "ABLATION: enclosures" enclosure_ablation;
  section "SCALING" scaling_section;
  section "BECHAMEL" bechamel_benchmarks
