(* The shared propagation engine, tested directly through a toy domain:
   state = unit-delay level, so the engine's answer is checkable against
   Circuit.level at every net.  Also covers the dirty-cone work bound of
   the in-place update. *)

module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate

(* levels as a propagation domain: source -> 0, gate -> 1 + max inputs *)
let levels_eval _circuit _id _driver operands = 1 + Array.fold_left max 0 operands
let levels ?domains c = Propagate.run ?domains c ~source:(fun _ -> 0) ~eval:levels_eval

let test_levels_domain () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  List.iter
    (fun domains ->
      let r = levels ~domains c in
      for i = 0 to Circuit.num_nets c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "level of %s at domains=%d" (Circuit.net_name c i) domains)
          (Circuit.level c i) r.Propagate.per_net.(i)
      done)
    [ 1; 2; 4 ]

let test_domains_validated () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  Alcotest.check_raises "domains = 0" (Invalid_argument "Parallel: domains must be positive")
    (fun () -> ignore (levels ~domains:0 c))

let test_update_touches_only_the_cone () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  (* a counting domain: same states as [levels], but tallies evals *)
  let evals = ref 0 in
  let eval circuit id driver operands =
    incr evals;
    levels_eval circuit id driver operands
  in
  let base = Propagate.run c ~source:(fun _ -> 0) ~eval in
  Alcotest.(check int) "full run evaluates every gate" (Circuit.gate_count c) !evals;
  let changed = List.hd (Circuit.primary_inputs c) in
  (* expected dirty-gate count from independent fanout marking; like the
     engine, marking stops at register boundaries — a flip-flop Q net
     re-seeds from [source], not from the D arrival *)
  let dirty = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem dirty id) then begin
      Hashtbl.replace dirty id ();
      Array.iter
        (fun out ->
          match Circuit.driver c out with
          | Circuit.Dff_output _ -> ()
          | Circuit.Gate _ | Circuit.Input -> mark out)
        (Circuit.fanout c id)
    end
  in
  mark changed;
  let dirty_gates =
    Array.to_list (Circuit.topo_gates c) |> List.filter (Hashtbl.mem dirty) |> List.length
  in
  Alcotest.(check bool) "cone is a strict subset" true (dirty_gates < Circuit.gate_count c);
  evals := 0;
  (* the update refines [base] in place: compare against a snapshot *)
  let before = Array.copy base.Propagate.per_net in
  Propagate.update base ~source:(fun _ -> 0) ~eval ~changed:[ changed ];
  Alcotest.(check int) "update evaluates only the cone" dirty_gates !evals;
  Alcotest.(check (array int)) "update preserves values" before base.Propagate.per_net

(* A circuit shaped to exercise both scheduler paths at once: one wide
   level (well above the pool cutoff) followed by a deep chain of
   single-gate levels (fused into one sequential batch). *)
let wide_then_narrow () =
  let b = Circuit.Builder.create ~name:"wide-narrow" () in
  let n_in = 8 and wide = 300 and chain = 40 in
  for i = 0 to n_in - 1 do
    Circuit.Builder.add_input b (Printf.sprintf "i%d" i)
  done;
  for g = 0 to wide - 1 do
    Circuit.Builder.add_gate b
      ~output:(Printf.sprintf "w%d" g)
      Spsta_logic.Gate_kind.And
      [ Printf.sprintf "i%d" (g mod n_in); Printf.sprintf "i%d" ((g + 1) mod n_in) ]
  done;
  let prev = ref "w0" in
  for k = 0 to chain - 1 do
    let out = Printf.sprintf "c%d" k in
    Circuit.Builder.add_gate b ~output:out Spsta_logic.Gate_kind.Buf [ !prev ];
    prev := out
  done;
  Circuit.Builder.add_output b !prev;
  Circuit.Builder.finalize b

let test_pooled_wide_and_fused_narrow () =
  let c = wide_then_narrow () in
  let seq = levels c in
  List.iter
    (fun domains ->
      let par = levels ~domains c in
      Alcotest.(check (array int))
        (Printf.sprintf "pooled sweep identical at domains=%d" domains)
        seq.Propagate.per_net par.Propagate.per_net;
      for i = 0 to Circuit.num_nets c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "level of %s at domains=%d" (Circuit.net_name c i) domains)
          (Circuit.level c i)
          par.Propagate.per_net.(i)
      done)
    [ 2; 3; 4 ]

let test_update_union_of_two_cones () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let evals = ref 0 in
  let eval circuit id driver operands =
    incr evals;
    levels_eval circuit id driver operands
  in
  let base = Propagate.run c ~source:(fun _ -> 0) ~eval in
  let roots =
    match Circuit.primary_inputs c with a :: b :: _ -> [ a; b ] | _ -> assert false
  in
  (* independent marking of the union cone, register-bounded like the
     engine's *)
  let dirty = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem dirty id) then begin
      Hashtbl.replace dirty id ();
      Array.iter
        (fun out ->
          match Circuit.driver c out with
          | Circuit.Dff_output _ -> ()
          | Circuit.Gate _ | Circuit.Input -> mark out)
        (Circuit.fanout c id)
    end
  in
  List.iter mark roots;
  let dirty_gates =
    Array.to_list (Circuit.topo_gates c) |> List.filter (Hashtbl.mem dirty) |> List.length
  in
  evals := 0;
  let before = Array.copy base.Propagate.per_net in
  Propagate.update base ~source:(fun _ -> 0) ~eval ~changed:roots;
  Alcotest.(check int) "update evaluates the union cone once" dirty_gates !evals;
  Alcotest.(check (array int)) "update preserves values" before base.Propagate.per_net

let test_empty_circuit () =
  (* a source-only circuit propagates to just the seeds *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_output b "a";
  let c = Circuit.Builder.finalize b in
  let r = levels c in
  Alcotest.(check (array int)) "single seeded source" [| 0 |] r.Propagate.per_net

let suite =
  [
    Alcotest.test_case "levels domain at 1/2/4 domains" `Quick test_levels_domain;
    Alcotest.test_case "domain count validated" `Quick test_domains_validated;
    Alcotest.test_case "update touches only the cone" `Quick test_update_touches_only_the_cone;
    Alcotest.test_case "pooled wide level + fused narrow chain" `Quick
      test_pooled_wide_and_fused_narrow;
    Alcotest.test_case "update on the union of two cones" `Quick
      test_update_union_of_two_cones;
    Alcotest.test_case "source-only circuit" `Quick test_empty_circuit;
  ]
