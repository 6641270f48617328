module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Normal = Spsta_dist.Normal
module Input_spec = Spsta_sim.Input_spec
module Monte_carlo = Spsta_sim.Monte_carlo
module Analyzer = Spsta_core.Analyzer
module Four_value = Spsta_core.Four_value
module A = Analyzer.Moments

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let test_source_signal () =
  let s = A.source_signal Input_spec.case_ii in
  close "p_rise mass" 0.02 (Spsta_dist.Mixture.total_weight s.A.rise);
  close "p_fall mass" 0.08 (Spsta_dist.Mixture.total_weight s.A.fall);
  close "rise mean" 0.0 (Spsta_dist.Mixture.mean s.A.rise);
  close "probs" 0.75 s.A.probs.Four_value.p_zero

(* hand-computed eq. 12 for a two-input AND with case-I inputs and
   N(0,1) arrivals, unit delay:
     P_rise = 3/16; rise mean = 1 + (1/sqrt(pi))/3;
     second moment of every component is 1, so
     rise sigma = sqrt(1 - (1/(3 sqrt(pi)))^2) *)
let test_and_gate_eq12 () =
  let x = A.source_signal Input_spec.case_i in
  let y = A.gate_output Gate_kind.And [ x; x ] in
  close "P_rise" (3.0 /. 16.0) y.A.probs.Four_value.p_rise ~tol:1e-12;
  let mu, sigma, p = A.transition_stats y `Rise in
  close "rise probability" (3.0 /. 16.0) p ~tol:1e-12;
  let expected_mean = 1.0 +. (1.0 /. (3.0 *. sqrt Float.pi)) in
  close "rise mean" expected_mean mu ~tol:1e-6;
  let m = 1.0 /. (3.0 *. sqrt Float.pi) in
  close "rise sigma" (sqrt (1.0 -. (m *. m))) sigma ~tol:1e-6

let test_weighted_sum_symmetry () =
  (* AND with equal-probability inputs: output rise mass equals fall
     mass, and (by symmetry of case I) their shapes mirror *)
  let x = A.source_signal Input_spec.case_i in
  let y = A.gate_output Gate_kind.And [ x; x ] in
  close "rise mass = fall mass... (not equal for AND!)" y.A.probs.Four_value.p_rise
    y.A.probs.Four_value.p_fall ~tol:1e-12

let test_glitch_filtering () =
  let rise =
    A.source_signal (Input_spec.make ~p_zero:0.0 ~p_one:0.0 ~p_rise:1.0 ~p_fall:0.0 ())
  in
  let fall =
    A.source_signal (Input_spec.make ~p_zero:0.0 ~p_one:0.0 ~p_rise:0.0 ~p_fall:1.0 ())
  in
  let y = A.gate_output Gate_kind.And [ rise; fall ] in
  close "steady zero" 1.0 y.A.probs.Four_value.p_zero;
  close "no rise mass" 0.0 (Spsta_dist.Mixture.total_weight y.A.rise);
  close "no fall mass" 0.0 (Spsta_dist.Mixture.total_weight y.A.fall)

let test_inversion_swaps_tops () =
  let x = A.source_signal Input_spec.case_ii in
  let y = A.gate_output Gate_kind.And [ x; x ] in
  let ny = A.gate_output Gate_kind.Nand [ x; x ] in
  let y_rise_mu, _, y_rise_p = A.transition_stats y `Rise in
  let ny_fall_mu, _, ny_fall_p = A.transition_stats ny `Fall in
  close "NAND fall = AND rise probability" y_rise_p ny_fall_p ~tol:1e-12;
  close "NAND fall = AND rise mean" y_rise_mu ny_fall_mu ~tol:1e-12

let test_not_shifts () =
  let x = A.source_signal Input_spec.case_i in
  let y = A.gate_output Gate_kind.Not [ x ] in
  let mu, sigma, p = A.transition_stats y `Rise in
  close "NOT rise = input fall prob" 0.25 p ~tol:1e-12;
  close "NOT rise mean = fall + delay" 1.0 mu ~tol:1e-9;
  close "NOT keeps sigma" 1.0 sigma ~tol:1e-9

let test_gate_delay () =
  let x = A.source_signal Input_spec.case_i in
  let y = A.gate_output ~gate_delay_rf:(2.5, 2.5) Gate_kind.Buf [ x ] in
  let mu, _, _ = A.transition_stats y `Rise in
  close "custom delay" 2.5 mu ~tol:1e-9

let test_fanin_fold_consistency () =
  (* pairwise folding (forced) must agree with direct enumeration on
     probabilities exactly and on moments closely *)
  let x = A.source_signal Input_spec.case_i in
  let inputs = [ x; x; x; x ] in
  let direct = A.gate_output ~max_enumerated_fanin:6 Gate_kind.And inputs in
  let folded = A.gate_output ~max_enumerated_fanin:2 Gate_kind.And inputs in
  close "P_rise equal" direct.A.probs.Four_value.p_rise folded.A.probs.Four_value.p_rise
    ~tol:1e-9;
  close "P_one equal" direct.A.probs.Four_value.p_one folded.A.probs.Four_value.p_one ~tol:1e-9;
  let dm, ds, _ = A.transition_stats direct `Rise in
  let fm, fs, _ = A.transition_stats folded `Rise in
  close "rise mean close" dm fm ~tol:0.05;
  close "rise sigma close" ds fs ~tol:0.05

(* on a fanout-free tree, SPSTA's probabilities are exact: MC converges
   to them *)
let tree_circuit () =
  let b = Circuit.Builder.create () in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.And [ "a"; "b" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Nor [ "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Or [ "n1"; "n2" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let test_tree_vs_monte_carlo () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let spsta = A.analyze c ~spec in
  let mc = Monte_carlo.simulate ~runs:40_000 ~seed:17 c ~spec in
  let y = Circuit.find_exn c "y" in
  let s = A.signal spsta y in
  let m = Monte_carlo.stats mc y in
  close "P_rise vs MC" (Monte_carlo.p_rise m) s.A.probs.Four_value.p_rise ~tol:0.01;
  close "P_one vs MC" (Monte_carlo.p_one m) s.A.probs.Four_value.p_one ~tol:0.01;
  let mu, sigma, _ = A.transition_stats s `Rise in
  close "rise mean vs MC" (Spsta_util.Stats.acc_mean m.Monte_carlo.rise_times) mu ~tol:0.06;
  close "rise sigma vs MC" (Spsta_util.Stats.acc_stddev m.Monte_carlo.rise_times) sigma ~tol:0.06

let test_backend_agreement () =
  (* moment and discretised backends agree on s27 endpoint moments *)
  let module B = (val Spsta_core.Top.discrete_backend ~dt:0.02 ()) in
  let module D = Analyzer.Make (B) in
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Input_spec.case_i in
  let moments = A.analyze c ~spec in
  let grid = D.analyze c ~spec in
  List.iter
    (fun e ->
      let mm, ms, mp = A.transition_stats (A.signal moments e) `Rise in
      let gm, gs, gp = D.transition_stats (D.signal grid e) `Rise in
      close "P agreement" mp gp ~tol:1e-6;
      close "mean agreement" mm gm ~tol:0.05;
      close "sigma agreement" ms gs ~tol:0.05)
    (Circuit.endpoints c)

let test_critical_endpoint_dominates () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let spec _ = Input_spec.case_i in
  let r = A.analyze c ~spec in
  let e = A.critical_endpoint r `Rise in
  let mean_of x =
    let mu, _, p = A.transition_stats (A.signal r x) `Rise in
    if p > 0.0 then mu else neg_infinity
  in
  List.iter
    (fun other -> Alcotest.(check bool) "dominates" true (mean_of e >= mean_of other -. 1e-9))
    (Circuit.endpoints c)

let test_mass_equals_probability () =
  (* invariant: the t.o.p. mass equals the transition probability at
     every net of a real circuit *)
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let spec _ = Input_spec.case_ii in
  let r = A.analyze c ~spec in
  Array.iter
    (fun g ->
      let s = A.signal r g in
      close "rise mass" s.A.probs.Four_value.p_rise (Spsta_dist.Mixture.total_weight s.A.rise)
        ~tol:1e-6;
      close "fall mass" s.A.probs.Four_value.p_fall (Spsta_dist.Mixture.total_weight s.A.fall)
        ~tol:1e-6)
    (Circuit.topo_gates c)

(* the ?domains levelized schedule must be bit-identical to the
   sequential traversal — every probability, mean, sigma, and (for the
   grid backend) every bin — on real circuits, for both backends *)
let test_parallel_bit_identical () =
  let spec _ = Input_spec.case_ii in
  List.iter
    (fun name ->
      let c = Spsta_experiments.Benchmarks.load name in
      let seq = A.analyze c ~spec in
      List.iter
        (fun domains ->
          let par = A.analyze ~domains c ~spec in
          for g = 0 to Circuit.num_nets c - 1 do
            let a = A.signal seq g and b = A.signal par g in
            List.iter
              (fun dir ->
                let ma, sa, pa = A.transition_stats a dir in
                let mb, sb, pb = A.transition_stats b dir in
                close "probability identical" pa pb ~tol:0.0;
                close "mean identical" ma mb ~tol:0.0;
                close "sigma identical" sa sb ~tol:0.0)
              [ `Rise; `Fall ]
          done)
        [ 2; 3 ])
    [ "s27"; "s386" ]

let test_parallel_bit_identical_grid () =
  let module B = (val Spsta_core.Top.discrete_backend ~dt:0.05 ()) in
  let module D = Analyzer.Make (B) in
  let spec _ = Input_spec.case_i in
  List.iter
    (fun name ->
      let c = Spsta_experiments.Benchmarks.load name in
      let seq = D.analyze c ~spec in
      let par = D.analyze ~domains:3 c ~spec in
      for g = 0 to Circuit.num_nets c - 1 do
        let a = D.signal seq g and b = D.signal par g in
        Alcotest.(check (list (pair (float 0.0) (float 0.0))))
          "rise grid bit-identical" (Spsta_dist.Discrete.series a.D.rise)
          (Spsta_dist.Discrete.series b.D.rise);
        Alcotest.(check (list (pair (float 0.0) (float 0.0))))
          "fall grid bit-identical" (Spsta_dist.Discrete.series a.D.fall)
          (Spsta_dist.Discrete.series b.D.fall)
      done)
    [ "s27"; "s386" ]

let test_domains_validation () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  Alcotest.check_raises "zero domains" (Invalid_argument "Parallel: domains must be positive")
    (fun () -> ignore (A.analyze ~domains:0 c ~spec))

let test_empty_inputs_rejected () =
  Alcotest.check_raises "no inputs" (Invalid_argument "Analyzer.gate_output: no inputs")
    (fun () -> ignore (A.gate_output Gate_kind.And []))

let suite =
  [
    Alcotest.test_case "source signal" `Quick test_source_signal;
    Alcotest.test_case "AND gate eq. 12 by hand" `Quick test_and_gate_eq12;
    Alcotest.test_case "AND rise/fall symmetry (case I)" `Quick test_weighted_sum_symmetry;
    Alcotest.test_case "glitch filtering" `Quick test_glitch_filtering;
    Alcotest.test_case "inversion swaps tops" `Quick test_inversion_swaps_tops;
    Alcotest.test_case "NOT shifts and swaps" `Quick test_not_shifts;
    Alcotest.test_case "gate delay parameter" `Quick test_gate_delay;
    Alcotest.test_case "fan-in fold consistency" `Quick test_fanin_fold_consistency;
    Alcotest.test_case "exact on trees vs MC" `Slow test_tree_vs_monte_carlo;
    Alcotest.test_case "moment vs grid backends" `Quick test_backend_agreement;
    Alcotest.test_case "critical endpoint dominance" `Quick test_critical_endpoint_dominates;
    Alcotest.test_case "top mass = transition probability" `Quick test_mass_equals_probability;
    Alcotest.test_case "parallel bit-identical (moments)" `Quick test_parallel_bit_identical;
    Alcotest.test_case "parallel bit-identical (grid)" `Quick test_parallel_bit_identical_grid;
    Alcotest.test_case "domains validation" `Quick test_domains_validation;
    Alcotest.test_case "empty inputs rejected" `Quick test_empty_inputs_rejected;
  ]
