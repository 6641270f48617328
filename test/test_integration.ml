(* Cross-engine integration properties on randomly generated circuits:
   the different analyses must agree wherever their assumptions
   coincide. *)

module Circuit = Spsta_netlist.Circuit
module Generator = Spsta_netlist.Generator
module Value4 = Spsta_logic.Value4
module Input_spec = Spsta_sim.Input_spec
module Monte_carlo = Spsta_sim.Monte_carlo
module Logic_sim = Spsta_sim.Logic_sim
module Four_value = Spsta_core.Four_value
module A = Spsta_core.Analyzer.Moments
module Normal = Spsta_dist.Normal

let random_circuit seed =
  Generator.generate
    { Generator.name = "rnd"; n_inputs = 4; n_outputs = 3; n_dffs = 3; n_gates = 35;
      target_depth = 5; seed }

(* property: analyzer probabilities are valid distributions at every
   net, and t.o.p. masses match transition probabilities *)
let probabilities_well_formed =
  QCheck.Test.make ~name:"SPSTA per-net probabilities well-formed" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_circuit seed in
      let r = A.analyze c ~spec:(fun _ -> Input_spec.case_i) in
      Array.for_all
        (fun g ->
          let s = A.signal r g in
          let p = s.A.probs in
          let sum =
            p.Four_value.p_zero +. p.Four_value.p_one +. p.Four_value.p_rise
            +. p.Four_value.p_fall
          in
          Float.abs (sum -. 1.0) < 1e-9
          && Float.abs (Spsta_dist.Mixture.total_weight s.A.rise -. p.Four_value.p_rise) < 1e-6
          && Float.abs (Spsta_dist.Mixture.total_weight s.A.fall -. p.Four_value.p_fall) < 1e-6)
        (Circuit.topo_gates c))

(* property: arrival times in any simulation run are bounded by
   level + latest source arrival (STA's structural bound) *)
let sim_respects_sta_bound =
  QCheck.Test.make ~name:"simulated arrivals within STA bound" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Spsta_util.Rng.create ~seed:(seed + 7) in
      let ok = ref true in
      for _ = 1 to 20 do
        let r = Logic_sim.run_random rng c ~spec:(fun _ -> Input_spec.case_i) in
        (* latest source arrival this run *)
        let launch =
          List.fold_left
            (fun acc s ->
              if Value4.is_transition r.Logic_sim.values.(s) then
                Float.max acc r.Logic_sim.times.(s)
              else acc)
            0.0 (Circuit.sources c)
        in
        Array.iter
          (fun g ->
            if
              Value4.is_transition r.Logic_sim.values.(g)
              && r.Logic_sim.times.(g) > float_of_int (Circuit.level c g) +. launch +. 1e-9
            then ok := false)
          (Circuit.topo_gates c)
      done;
      !ok)

(* property: folding wide gates pairwise does not change any net's
   four-value probabilities (the fold is exact under eq. 5's
   input-independence assumption); the generator gives about 30% of the
   multi-input gates a fan-in of 3 or 4, so a two-input enumeration cap
   sends those through the fold *)
let pairwise_fold_preserves_probs =
  QCheck.Test.make ~name:"pairwise fold preserves four-value probabilities" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_circuit seed in
      let spec _ = Input_spec.case_ii in
      let rc = A.analyze c ~spec and rf = A.analyze ~max_enumerated_fanin:2 c ~spec in
      Array.for_all
        (fun g ->
          let pc = (A.signal rc g).A.probs and pf = (A.signal rf g).A.probs in
          Float.abs (pc.Four_value.p_rise -. pf.Four_value.p_rise) < 1e-9
          && Float.abs (pc.Four_value.p_fall -. pf.Four_value.p_fall) < 1e-9
          && Float.abs (pc.Four_value.p_one -. pf.Four_value.p_one) < 1e-9)
        (Circuit.topo_gates c))

(* property: the moment and discretised backends agree on probabilities
   exactly and on moments closely *)
let backends_agree =
  QCheck.Test.make ~name:"moment and grid backends agree" ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_circuit seed in
      let module B = (val Spsta_core.Top.discrete_backend ~dt:0.05 ()) in
      let module D = Spsta_core.Analyzer.Make (B) in
      let spec _ = Input_spec.case_i in
      let rm = A.analyze c ~spec and rd = D.analyze c ~spec in
      List.for_all
        (fun e ->
          let mm, ms, mp = A.transition_stats (A.signal rm e) `Rise in
          let dm, ds, dp = D.transition_stats (D.signal rd e) `Rise in
          Float.abs (mp -. dp) < 1e-6
          && (mp < 1e-6 || (Float.abs (mm -. dm) < 0.12 && Float.abs (ms -. ds) < 0.12)))
        (Circuit.endpoints c))

(* property: incremental update equals full re-analysis for a random
   subset of changed sources *)
let incremental_equals_full =
  QCheck.Test.make ~name:"incremental update = full analysis" ~count:15
    QCheck.(pair (int_range 0 100_000) (int_range 0 255))
    (fun (seed, mask) ->
      let c = random_circuit seed in
      let sources = Circuit.sources c in
      let changed = List.filteri (fun i _ -> mask land (1 lsl (i mod 8)) <> 0) sources in
      let base_spec _ = Input_spec.case_i in
      let new_spec s = if List.mem s changed then Input_spec.case_ii else Input_spec.case_i in
      let base = A.analyze c ~spec:base_spec in
      let full = A.analyze c ~spec:new_spec in
      let inc = A.update base ~changed ~spec:new_spec in
      Array.for_all
        (fun g ->
          let f = A.signal full g and i = A.signal inc g in
          let fm, fs, fp = A.transition_stats f `Rise in
          let im, is_, ip = A.transition_stats i `Rise in
          Float.abs (fp -. ip) < 1e-12
          && Float.abs (fm -. im) < 1e-12
          && Float.abs (fs -. is_) < 1e-12)
        (Circuit.topo_gates c))

(* SPSTA vs Monte Carlo on a mid-size random circuit: statistical
   agreement of probabilities at every net (reconvergence allows a
   modest gap) *)
let test_spsta_vs_mc_probabilities () =
  let c = random_circuit 424242 in
  let spec _ = Input_spec.case_i in
  let r = A.analyze c ~spec in
  let mc = Monte_carlo.simulate ~runs:20_000 ~seed:5 c ~spec in
  let worst = ref 0.0 in
  Array.iter
    (fun g ->
      let predicted = (A.signal r g).A.probs.Four_value.p_rise in
      let observed = Monte_carlo.p_rise (Monte_carlo.stats mc g) in
      worst := Float.max !worst (Float.abs (predicted -. observed)))
    (Circuit.topo_gates c);
  if !worst > 0.15 then Alcotest.failf "worst probability gap %.3f" !worst

(* canonical SSTA with zero process sigma must equal classical SSTA *)
let test_canonical_reduces_to_ssta () =
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let model = Spsta_variation.Param_model.create ~grid:2 () in
  let placement = Spsta_variation.Param_model.place model c in
  let canonical = Spsta_variation.Canonical_ssta.analyze model placement c in
  let classic = Spsta_ssta.Ssta.analyze c in
  List.iter
    (fun e ->
      let a = Spsta_variation.Canonical_ssta.arrival canonical e in
      let b = Spsta_ssta.Ssta.arrival classic e in
      let dm =
        Float.abs
          (a.Spsta_variation.Canonical_ssta.rise.Spsta_variation.Canonical.mean
          -. Normal.mean b.Spsta_ssta.Ssta.rise)
      in
      let ds =
        Float.abs
          (Spsta_variation.Canonical.stddev a.Spsta_variation.Canonical_ssta.rise
          -. Normal.stddev b.Spsta_ssta.Ssta.rise)
      in
      if dm > 1e-6 || ds > 1e-6 then
        Alcotest.failf "mismatch at %s: dmean %.2e dsigma %.2e" (Circuit.net_name c e) dm ds)
    (Circuit.endpoints c)

let suite =
  [
    QCheck_alcotest.to_alcotest probabilities_well_formed;
    QCheck_alcotest.to_alcotest sim_respects_sta_bound;
    QCheck_alcotest.to_alcotest pairwise_fold_preserves_probs;
    QCheck_alcotest.to_alcotest backends_agree;
    QCheck_alcotest.to_alcotest incremental_equals_full;
    Alcotest.test_case "SPSTA vs MC probabilities" `Slow test_spsta_vs_mc_probabilities;
    Alcotest.test_case "canonical SSTA reduces to classical" `Quick test_canonical_reduces_to_ssta;
  ]
