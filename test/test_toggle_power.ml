module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Input_spec = Spsta_sim.Input_spec
module Two_value = Spsta_core.Two_value
module Transition_density = Spsta_power.Transition_density
module Power_model = Spsta_power.Power_model

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let and_gate () =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "b" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

(* fig. 3 numbers: AND with p=0.5 inputs, rho=0.5 each -> rho(y) = 0.5 *)
let test_density_and_gate () =
  let c = and_gate () in
  let d = Transition_density.compute c ~p_one:(fun _ -> 0.5) ~source_rate:(fun _ -> 0.5) in
  close "eq. 6 on AND" 0.5 (Transition_density.density d (Circuit.find_exn c "y"))

let test_density_of_specs () =
  let c = and_gate () in
  let d = Transition_density.of_input_specs c ~spec:(fun _ -> Input_spec.case_i) in
  close "case I AND density" 0.5 (Transition_density.density d (Circuit.find_exn c "y"));
  (* total = two sources (0.5 each) + gate (0.5) *)
  close "total activity" 1.5 (Transition_density.total d)

let test_density_xor_chain () =
  (* xor always propagates: density adds *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Xor [ "a"; "b" ];
  Circuit.Builder.add_output b "y";
  let c = Circuit.Builder.finalize b in
  let d = Transition_density.compute c ~p_one:(fun _ -> 0.5) ~source_rate:(fun _ -> 0.3) in
  close "XOR density adds" 0.6 (Transition_density.density d (Circuit.find_exn c "y"))

let test_two_value_rate_matches_density () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Input_spec.case_i in
  let tv = Two_value.compute c ~spec in
  let d = Transition_density.of_input_specs c ~spec in
  Array.iter
    (fun g ->
      close
        ("rate of " ^ Circuit.net_name c g)
        (Transition_density.density d g) (Two_value.toggling_rate tv g) ~tol:1e-9)
    (Circuit.topo_gates c)

let test_two_value_includes_glitches () =
  (* four-value filtering can only reduce activity *)
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let spec _ = Input_spec.case_i in
  let tv = Two_value.compute c ~spec in
  let fv = Spsta_core.Analyzer.Moments.analyze c ~spec in
  Array.iter
    (fun g ->
      let with_glitches = Two_value.toggling_rate tv g in
      let logic_only =
        Spsta_core.Four_value.toggling_rate
          (Spsta_core.Analyzer.Moments.signal fv g).Spsta_core.Analyzer.Moments.probs
      in
      if logic_only > with_glitches +. 1e-6 then
        Alcotest.failf "net %s: logic-only %.4f exceeds with-glitches %.4f"
          (Circuit.net_name c g) logic_only with_glitches)
    (Circuit.topo_gates c)

let test_power_model () =
  let c = and_gate () in
  let y = Circuit.find_exn c "y" in
  let params = Power_model.default_params in
  (* y drives nothing: capacitance = wire only *)
  close "sink capacitance" params.Power_model.wire_cap (Power_model.net_capacitance params c y);
  let a = Circuit.find_exn c "a" in
  close "driver capacitance"
    (params.Power_model.wire_cap +. params.Power_model.gate_input_cap)
    (Power_model.net_capacitance params c a);
  let p1 = Power_model.dynamic_power c ~density:(fun _ -> 0.5) in
  let p2 = Power_model.dynamic_power c ~density:(fun _ -> 1.0) in
  close "power linear in density" (2.0 *. p1) p2 ~tol:1e-20;
  Alcotest.(check bool) "positive power" true (p1 > 0.0)

let test_per_net_power_sorted () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let d = Transition_density.of_input_specs c ~spec:(fun _ -> Input_spec.case_i) in
  let entries = Power_model.per_net_power c ~density:(Transition_density.density d) in
  Alcotest.(check int) "one entry per net" (Circuit.num_nets c) (List.length entries);
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && descending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted descending" true (descending entries)

let suite =
  [
    Alcotest.test_case "eq. 6 on an AND gate" `Quick test_density_and_gate;
    Alcotest.test_case "density from input specs" `Quick test_density_of_specs;
    Alcotest.test_case "XOR density adds" `Quick test_density_xor_chain;
    Alcotest.test_case "two-value rate = density" `Quick test_two_value_rate_matches_density;
    Alcotest.test_case "glitches only add activity" `Quick test_two_value_includes_glitches;
    Alcotest.test_case "power model" `Quick test_power_model;
    Alcotest.test_case "per-net power sorted" `Quick test_per_net_power_sorted;
  ]
