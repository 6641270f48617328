module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Signal_prob = Spsta_core.Signal_prob
module Exact_prob = Spsta_core.Exact_prob
module Correlated_prob = Spsta_core.Correlated_prob

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let gate2 kind =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"y" kind [ "a"; "b" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let prob_of kind pa pb =
  let c = gate2 kind in
  let p = function s when Circuit.net_name c s = "a" -> pa | _ -> pb in
  let r = Signal_prob.compute c ~p_source:p in
  Signal_prob.prob r (Circuit.find_exn c "y")

let test_gate_closed_forms () =
  close "AND" (0.3 *. 0.6) (prob_of Gate_kind.And 0.3 0.6);
  close "OR" (0.3 +. 0.6 -. (0.3 *. 0.6)) (prob_of Gate_kind.Or 0.3 0.6);
  close "NAND" (1.0 -. (0.3 *. 0.6)) (prob_of Gate_kind.Nand 0.3 0.6);
  close "XOR" ((0.3 *. 0.4) +. (0.7 *. 0.6)) (prob_of Gate_kind.Xor 0.3 0.6)

let test_validation () =
  let c = gate2 Gate_kind.And in
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Signal_prob.compute: probability outside [0,1]") (fun () ->
      ignore (Signal_prob.compute c ~p_source:(fun _ -> 1.5)))

(* on a fanout-free tree, eq. 5 is exact: it must equal the BDD value *)
let tree_circuit () =
  let b = Circuit.Builder.create () in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.Nand [ "a"; "b" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Nor [ "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Xor [ "n1"; "n2" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let test_tree_exact () =
  let c = tree_circuit () in
  let p_src _ = Spsta_sim.Input_spec.signal_probability Spsta_sim.Input_spec.case_ii in
  let approx = Signal_prob.compute c ~p_source:p_src in
  (* evaluate via the BDD with identical source probabilities: on a tree
     the independence assumption is exact *)
  let bdds = Spsta_bdd.Circuit_bdd.build c in
  let sources = Array.of_list (Circuit.sources c) in
  let p_var v = p_src sources.(v) in
  Array.iter
    (fun g ->
      close
        ("net " ^ Circuit.net_name c g)
        (Spsta_bdd.Circuit_bdd.exact_prob_one bdds ~p_source:p_var g)
        (Signal_prob.prob approx g))
    (Circuit.topo_gates c)

let test_reconvergence_gap () =
  (* y = AND(a, NOT a) is always 0, but independence predicts p(1-p) *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"na" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "na" ];
  Circuit.Builder.add_output b "y";
  let c = Circuit.Builder.finalize b in
  let approx = Signal_prob.compute c ~p_source:(fun _ -> 0.5) in
  close "independence error" 0.25 (Signal_prob.prob approx (Circuit.find_exn c "y"))

let test_correlated_prob_fixes_reconvergence () =
  (* the first-order correction handles y = AND(a, NOT a) exactly:
     P = Pa (1-Pa) + cov(a, !a) = 0.25 - 0.25 = 0 *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"na" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "na" ];
  Circuit.Builder.add_output b "y";
  let c = Circuit.Builder.finalize b in
  let r = Correlated_prob.compute c ~p_source:(fun _ -> 0.5) in
  close "corrected contradiction" 0.0 (Correlated_prob.prob r (Circuit.find_exn c "y"));
  (* y = AND(a, a) = a likewise *)
  let b2 = Circuit.Builder.create () in
  Circuit.Builder.add_input b2 "a";
  Circuit.Builder.add_gate b2 ~output:"y" Gate_kind.And [ "a"; "a" ];
  Circuit.Builder.add_output b2 "y";
  let c2 = Circuit.Builder.finalize b2 in
  let r2 = Correlated_prob.compute c2 ~p_source:(fun _ -> 0.3) in
  close "idempotent AND" 0.3 (Correlated_prob.prob r2 (Circuit.find_exn c2 "y"))

let test_correlated_prob_matches_eq5_on_tree () =
  (* without reconvergence the correction term is zero *)
  let c = tree_circuit () in
  let p _ = 0.4 in
  let eq5 = Signal_prob.compute c ~p_source:p in
  let corr = Correlated_prob.compute c ~p_source:p in
  Array.iter
    (fun g ->
      close ("net " ^ Circuit.net_name c g) (Signal_prob.prob eq5 g) (Correlated_prob.prob corr g)
        ~tol:1e-9)
    (Circuit.topo_gates c)

let test_correlated_improves_s27 () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Spsta_sim.Input_spec.case_i in
  let p_src s = Spsta_sim.Input_spec.signal_probability (spec s) in
  let eq5 = Signal_prob.compute c ~p_source:p_src in
  let corr = Correlated_prob.compute c ~p_source:p_src in
  let bdds = Spsta_bdd.Circuit_bdd.build c in
  let sources = Array.of_list (Circuit.sources c) in
  let p_var v = p_src sources.(v) in
  let total_eq5 = ref 0.0 and total_corr = ref 0.0 in
  Array.iter
    (fun g ->
      let exact = Spsta_bdd.Circuit_bdd.exact_prob_one bdds ~p_source:p_var g in
      total_eq5 := !total_eq5 +. Float.abs (Signal_prob.prob eq5 g -. exact);
      total_corr := !total_corr +. Float.abs (Correlated_prob.prob corr g -. exact))
    (Circuit.topo_gates c);
  Alcotest.(check bool) "first-order correction beats independence" true
    (!total_corr < !total_eq5)

let test_correlation_accessor () =
  let c = tree_circuit () in
  let r = Correlated_prob.compute c ~p_source:(fun _ -> 0.5) in
  let a = Circuit.find_exn c "a" in
  Alcotest.(check (float 1e-9)) "self correlation" 1.0 (Correlated_prob.correlation r a a);
  let b = Circuit.find_exn c "b" in
  Alcotest.(check (float 1e-9)) "independent sources" 0.0 (Correlated_prob.correlation r a b)

(* OR3 whose row products sum past 1 feeding an AND2: unclamped, the
   AND's [Truth.prob_one] rejected its 1.0000000000000002 operand *)
let test_overshoot_propagates () =
  let b = Circuit.Builder.create () in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Or [ "a"; "b"; "c" ];
  Circuit.Builder.add_gate b ~output:"z" Gate_kind.And [ "y"; "d" ];
  Circuit.Builder.add_output b "z";
  let c = Circuit.Builder.finalize b in
  let p_source id =
    match Circuit.net_name c id with
    | "a" -> 0.9952932513203744
    | "b" -> 0.06708709781032629
    | "c" -> 0.999999999999996
    | _ -> 0.5
  in
  let r = Signal_prob.compute c ~p_source in
  Alcotest.(check (float 0.0)) "OR3 clamped to 1" 1.0 (Signal_prob.prob r (Circuit.find_exn c "y"));
  Alcotest.(check (float 0.0)) "AND2 downstream" 0.5 (Signal_prob.prob r (Circuit.find_exn c "z"));
  (* the transition densities read the same probabilities *)
  let td =
    Spsta_power.Transition_density.compute c ~p_one:(Signal_prob.prob r) ~source_rate:(fun _ -> 0.2)
  in
  Alcotest.(check bool) "density downstream is finite" true
    (Float.is_finite (Spsta_power.Transition_density.density td (Circuit.find_exn c "z")))

let suite =
  [
    Alcotest.test_case "rounding overshoot propagates clamped" `Quick test_overshoot_propagates;
    Alcotest.test_case "gate closed forms" `Quick test_gate_closed_forms;
    Alcotest.test_case "source validation" `Quick test_validation;
    Alcotest.test_case "exact on trees" `Quick test_tree_exact;
    Alcotest.test_case "reconvergence gap quantified" `Quick test_reconvergence_gap;
    Alcotest.test_case "first-order correction on contradictions" `Quick
      test_correlated_prob_fixes_reconvergence;
    Alcotest.test_case "correction neutral on trees" `Quick test_correlated_prob_matches_eq5_on_tree;
    Alcotest.test_case "correction improves s27" `Quick test_correlated_improves_s27;
    Alcotest.test_case "correlation accessors" `Quick test_correlation_accessor;
  ]
