module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Logic_sim = Spsta_sim.Logic_sim

(* one gate y = kind(a, b) with explicit source behaviours *)
let gate_circuit kind =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"y" kind [ "a"; "b" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let run_gate kind (va, ta) (vb, tb) =
  let c = gate_circuit kind in
  let source_values s =
    if Circuit.net_name c s = "a" then (va, ta) else (vb, tb)
  in
  let r = Logic_sim.run c ~source_values in
  let y = Circuit.find_exn c "y" in
  (r.Logic_sim.values.(y), r.Logic_sim.times.(y))

let check_case name kind a b expected_v expected_t =
  let v, t = run_gate kind a b in
  if not (Value4.equal v expected_v) then
    Alcotest.failf "%s: expected value %s, got %s" name (Value4.to_string expected_v)
      (Value4.to_string v);
  match expected_t with
  | None -> ()
  | Some et -> Alcotest.(check (float 1e-9)) (name ^ " time") et t

let test_and_rising_max () =
  (* both rising: output rises with the later input, plus unit delay *)
  check_case "AND r/r" Gate_kind.And (Value4.Rising, 1.0) (Value4.Rising, 3.0) Value4.Rising
    (Some 4.0)

let test_and_falling_min () =
  check_case "AND f/f" Gate_kind.And (Value4.Falling, 1.0) (Value4.Falling, 3.0) Value4.Falling
    (Some 2.0)

let test_or_rising_min () =
  check_case "OR r/r" Gate_kind.Or (Value4.Rising, 1.0) (Value4.Rising, 3.0) Value4.Rising
    (Some 2.0)

let test_or_falling_max () =
  check_case "OR f/f" Gate_kind.Or (Value4.Falling, 1.0) (Value4.Falling, 3.0) Value4.Falling
    (Some 4.0)

let test_nand_swaps () =
  (* NAND of two fallers rises at the first faller *)
  check_case "NAND f/f" Gate_kind.Nand (Value4.Falling, 1.0) (Value4.Falling, 3.0) Value4.Rising
    (Some 2.0)

let test_single_switcher () =
  check_case "AND r with steady 1" Gate_kind.And (Value4.Rising, 2.5) (Value4.One, 0.0)
    Value4.Rising (Some 3.5);
  check_case "AND r with steady 0 masks" Gate_kind.And (Value4.Rising, 2.5) (Value4.Zero, 0.0)
    Value4.Zero None

let test_glitch_suppression () =
  check_case "AND r/f glitch" Gate_kind.And (Value4.Rising, 1.0) (Value4.Falling, 2.0) Value4.Zero
    None;
  check_case "OR r/f glitch" Gate_kind.Or (Value4.Rising, 1.0) (Value4.Falling, 2.0) Value4.One None

let test_xor_settles_last () =
  check_case "XOR r with steady 0" Gate_kind.Xor (Value4.Rising, 1.5) (Value4.Zero, 0.0)
    Value4.Rising (Some 2.5);
  check_case "XOR r with steady 1 falls" Gate_kind.Xor (Value4.Rising, 1.5) (Value4.One, 0.0)
    Value4.Falling (Some 2.5);
  check_case "XOR r/r cancels" Gate_kind.Xor (Value4.Rising, 1.0) (Value4.Rising, 2.0) Value4.Zero
    None

let test_gate_delay_param () =
  let c = gate_circuit Gate_kind.And in
  let r =
    Logic_sim.run ~delay_rf:(fun _ -> (0.25, 0.25)) c ~source_values:(fun _ -> (Value4.Rising, 1.0))
  in
  let y = Circuit.find_exn c "y" in
  Alcotest.(check (float 1e-9)) "custom delay" 1.25 r.Logic_sim.times.(y)

let test_chain_accumulates_delay () =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.Buf [ "a" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Buf [ "n1" ];
  Circuit.Builder.add_gate b ~output:"n3" Gate_kind.Not [ "n2" ];
  Circuit.Builder.add_output b "n3";
  let c = Circuit.Builder.finalize b in
  let r = Logic_sim.run c ~source_values:(fun _ -> (Value4.Rising, 0.5)) in
  let n3 = Circuit.find_exn c "n3" in
  Alcotest.(check bool) "inverted" true (Value4.equal r.Logic_sim.values.(n3) Value4.Falling);
  Alcotest.(check (float 1e-9)) "three unit delays" 3.5 r.Logic_sim.times.(n3)

(* property: per-gate values always equal eval4 of the input values *)
let values_consistent =
  QCheck.Test.make ~name:"simulation values = eval4 at every gate" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let profile =
        { Spsta_netlist.Generator.name = "sim"; n_inputs = 5; n_outputs = 3; n_dffs = 3;
          n_gates = 40; target_depth = 5; seed }
      in
      let c = Spsta_netlist.Generator.generate profile in
      let rng = Spsta_util.Rng.create ~seed in
      let r =
        Logic_sim.run_random rng c ~spec:(fun _ -> Spsta_sim.Input_spec.case_i)
      in
      Array.for_all
        (fun g ->
          match Circuit.driver c g with
          | Circuit.Gate { kind; inputs } ->
            let in_values = Array.to_list (Array.map (fun i -> r.Logic_sim.values.(i)) inputs) in
            Value4.equal r.Logic_sim.values.(g) (Gate_kind.eval4 kind in_values)
          | Circuit.Input | Circuit.Dff_output _ -> true)
        (Circuit.topo_gates c))

(* property: transition times never precede the earliest transitioning
   input plus the gate delay *)
let times_monotone =
  QCheck.Test.make ~name:"arrival times respect causality" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let profile =
        { Spsta_netlist.Generator.name = "mono"; n_inputs = 4; n_outputs = 2; n_dffs = 2;
          n_gates = 30; target_depth = 4; seed }
      in
      let c = Spsta_netlist.Generator.generate profile in
      let rng = Spsta_util.Rng.create ~seed:(seed + 1) in
      let r = Logic_sim.run_random rng c ~spec:(fun _ -> Spsta_sim.Input_spec.case_i) in
      Array.for_all
        (fun g ->
          match Circuit.driver c g with
          | Circuit.Gate { inputs; _ } ->
            if Value4.is_transition r.Logic_sim.values.(g) then begin
              let transitioning =
                Array.to_list inputs
                |> List.filter (fun i -> Value4.is_transition r.Logic_sim.values.(i))
              in
              match transitioning with
              | [] -> false
              | _ ->
                let earliest =
                  List.fold_left (fun acc i -> Float.min acc r.Logic_sim.times.(i)) infinity
                    transitioning
                in
                let latest =
                  List.fold_left (fun acc i -> Float.max acc r.Logic_sim.times.(i)) neg_infinity
                    transitioning
                in
                r.Logic_sim.times.(g) >= earliest +. 1.0 -. 1e-9
                && r.Logic_sim.times.(g) <= latest +. 1.0 +. 1e-9
            end
            else true
          | Circuit.Input | Circuit.Dff_output _ -> true)
        (Circuit.topo_gates c))

let suite =
  [
    Alcotest.test_case "AND rising = MAX" `Quick test_and_rising_max;
    Alcotest.test_case "AND falling = MIN" `Quick test_and_falling_min;
    Alcotest.test_case "OR rising = MIN" `Quick test_or_rising_min;
    Alcotest.test_case "OR falling = MAX" `Quick test_or_falling_max;
    Alcotest.test_case "NAND swaps directions" `Quick test_nand_swaps;
    Alcotest.test_case "single switching input" `Quick test_single_switcher;
    Alcotest.test_case "glitch suppression" `Quick test_glitch_suppression;
    Alcotest.test_case "XOR settles with last input" `Quick test_xor_settles_last;
    Alcotest.test_case "gate delay parameter" `Quick test_gate_delay_param;
    Alcotest.test_case "delay accumulates along chains" `Quick test_chain_accumulates_delay;
    QCheck_alcotest.to_alcotest values_consistent;
    QCheck_alcotest.to_alcotest times_monotone;
  ]
