(* Process-variation extension: variational gate delays across the
   analyzers and the Monte Carlo simulator. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Input_spec = Spsta_sim.Input_spec
module Logic_sim = Spsta_sim.Logic_sim
module Monte_carlo = Spsta_sim.Monte_carlo
module A = Spsta_core.Analyzer.Moments
module Stats = Spsta_util.Stats

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let buffer_chain n =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  let prev = ref "a" in
  for i = 1 to n do
    let name = Printf.sprintf "n%d" i in
    Circuit.Builder.add_gate b ~output:name Gate_kind.Buf [ !prev ];
    prev := name
  done;
  Circuit.Builder.add_output b !prev;
  Circuit.Builder.finalize b

let always_rising =
  Input_spec.make ~p_zero:0.0 ~p_one:0.0 ~p_rise:1.0 ~p_fall:0.0
    ~rise_arrival:(Spsta_dist.Normal.make ~mu:0.0 ~sigma:0.0)
    ()

(* a 4-buffer chain with sigma_d per gate: output variance = 4 sigma_d^2 *)
let test_spsta_chain_variance () =
  let c = buffer_chain 4 in
  let r = A.analyze ~delay_sigma:0.3 c ~spec:(fun _ -> always_rising) in
  let out = List.hd (Circuit.primary_outputs c) in
  let mu, sigma, p = A.transition_stats (A.signal r out) `Rise in
  close "certain transition" 1.0 p ~tol:1e-12;
  close "mean unchanged" 4.0 mu ~tol:1e-9;
  close "accumulated process sigma" (0.3 *. sqrt 4.0) sigma ~tol:1e-9

let test_mc_chain_variance () =
  let c = buffer_chain 4 in
  let r =
    Monte_carlo.simulate ~delay_sigma:0.3 ~runs:40_000 ~seed:3 c ~spec:(fun _ -> always_rising)
  in
  let out = List.hd (Circuit.primary_outputs c) in
  let s = Monte_carlo.stats r out in
  close "MC mean" 4.0 (Stats.acc_mean s.Monte_carlo.rise_times) ~tol:0.01;
  close "MC sigma" 0.6 (Stats.acc_stddev s.Monte_carlo.rise_times) ~tol:0.01

let test_zero_sigma_matches_deterministic () =
  let c = buffer_chain 3 in
  let spec _ = Input_spec.case_i in
  let a = A.analyze ~delay_sigma:0.0 c ~spec in
  let b = A.analyze c ~spec in
  let out = List.hd (Circuit.primary_outputs c) in
  let am, asg, _ = A.transition_stats (A.signal a out) `Rise in
  let bm, bsg, _ = A.transition_stats (A.signal b out) `Rise in
  close "means equal" bm am;
  close "sigmas equal" bsg asg

let test_delay_of_override () =
  let c = buffer_chain 2 in
  let out = List.hd (Circuit.primary_outputs c) in
  let delays = fun g -> if Circuit.level c g = 1 then 0.5 else 2.0 in
  let r =
    Logic_sim.run ~delay_rf:(fun g -> (delays g, delays g)) c ~source_values:(fun _ -> (Value4.Rising, 0.0))
  in
  close "per-gate delays" 2.5 r.Logic_sim.times.(out)

let test_variation_widens_mc () =
  (* with input statistics fixed, process variation must widen the
     observed arrival spread on a real circuit *)
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Input_spec.case_i in
  let flat = Monte_carlo.simulate ~runs:8000 ~seed:5 c ~spec in
  let wide = Monte_carlo.simulate ~delay_sigma:0.5 ~runs:8000 ~seed:5 c ~spec in
  let g17 = Circuit.find_exn c "G17" in
  let sd r = Stats.acc_stddev (Monte_carlo.stats r g17).Monte_carlo.rise_times in
  Alcotest.(check bool) "variation widens spread" true (sd wide > sd flat)

let test_spsta_tracks_mc_with_variation () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Input_spec.case_i in
  let spsta = A.analyze ~delay_sigma:0.3 c ~spec in
  let mc = Monte_carlo.simulate ~delay_sigma:0.3 ~runs:30_000 ~seed:7 c ~spec in
  let g13 = Circuit.find_exn c "G13" in
  let mu, sigma, _ = A.transition_stats (A.signal spsta g13) `Rise in
  let s = Monte_carlo.stats mc g13 in
  close "variational mean vs MC" (Stats.acc_mean s.Monte_carlo.rise_times) mu ~tol:0.1;
  close "variational sigma vs MC" (Stats.acc_stddev s.Monte_carlo.rise_times) sigma ~tol:0.1

let suite =
  [
    Alcotest.test_case "SPSTA chain variance" `Quick test_spsta_chain_variance;
    Alcotest.test_case "MC chain variance" `Slow test_mc_chain_variance;
    Alcotest.test_case "zero sigma = deterministic" `Quick test_zero_sigma_matches_deterministic;
    Alcotest.test_case "per-gate delay override" `Quick test_delay_of_override;
    Alcotest.test_case "variation widens MC spread" `Quick test_variation_widens_mc;
    Alcotest.test_case "SPSTA tracks MC under variation" `Slow test_spsta_tracks_mc_with_variation;
  ]
