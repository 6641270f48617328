module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind

let build_small () =
  (* a -> inv -> n1; (n1, b) -> and -> n2 (PO); n2 -> dff q (q feeds inv2 -> n3 PO) *)
  let b = Circuit.Builder.create ~name:"small" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.And [ "n1"; "b" ];
  Circuit.Builder.add_output b "n2";
  Circuit.Builder.add_dff b ~q:"q" ~d:"n2";
  Circuit.Builder.add_gate b ~output:"n3" Gate_kind.Not [ "q" ];
  Circuit.Builder.add_output b "n3";
  Circuit.Builder.finalize b

let test_basic_structure () =
  let c = build_small () in
  Alcotest.(check int) "nets" 6 (Circuit.num_nets c);
  Alcotest.(check int) "gates" 3 (Circuit.gate_count c);
  Alcotest.(check int) "inputs" 2 (List.length (Circuit.primary_inputs c));
  Alcotest.(check int) "outputs" 2 (List.length (Circuit.primary_outputs c));
  Alcotest.(check int) "dffs" 1 (List.length (Circuit.dffs c));
  Alcotest.(check int) "sources = PI + FF" 3 (List.length (Circuit.sources c));
  Alcotest.(check string) "name" "small" (Circuit.name c)

let test_levels_and_depth () =
  let c = build_small () in
  let level name = Circuit.level c (Circuit.find_exn c name) in
  Alcotest.(check int) "source level" 0 (level "a");
  Alcotest.(check int) "ff output level" 0 (level "q");
  Alcotest.(check int) "inv level" 1 (level "n1");
  Alcotest.(check int) "and level" 2 (level "n2");
  Alcotest.(check int) "depth" 2 (Circuit.depth c)

let test_topo_order () =
  let c = build_small () in
  let position = Hashtbl.create 8 in
  Array.iteri (fun i g -> Hashtbl.replace position g i) (Circuit.topo_gates c);
  Array.iter
    (fun g ->
      match Circuit.driver c g with
      | Circuit.Gate { inputs; _ } ->
        Array.iter
          (fun i ->
            match Hashtbl.find_opt position i with
            | Some pi -> Alcotest.(check bool) "inputs precede gate" true (pi < Hashtbl.find position g)
            | None -> () (* a source *))
          inputs
      | Circuit.Input | Circuit.Dff_output _ -> Alcotest.fail "topo_gates must be gates")
    (Circuit.topo_gates c)

let test_gates_by_level () =
  let check_circuit c =
    let groups = Circuit.gates_by_level c in
    (* every gate exactly once *)
    let flat = Array.concat (Array.to_list groups) in
    Alcotest.(check int) "covers every gate" (Array.length (Circuit.topo_gates c))
      (Array.length flat);
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun g ->
        Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen g);
        Hashtbl.replace seen g ())
      flat;
    (* uniform level within a group, strictly ascending across groups,
       and no gate's input is driven in its own or a later group *)
    let last_level = ref (-1) in
    Array.iter
      (fun gates ->
        Alcotest.(check bool) "no empty groups" true (Array.length gates > 0);
        let lvl = Circuit.level c gates.(0) in
        Alcotest.(check bool) "levels ascend" true (lvl > !last_level);
        last_level := lvl;
        Array.iter
          (fun g ->
            Alcotest.(check int) "uniform level in group" lvl (Circuit.level c g);
            match Circuit.driver c g with
            | Circuit.Gate { inputs; _ } ->
              Array.iter
                (fun i ->
                  Alcotest.(check bool) "operands from earlier levels" true
                    (Circuit.level c i < lvl))
                inputs
            | Circuit.Input | Circuit.Dff_output _ -> Alcotest.fail "groups hold gates only")
          gates)
      groups
  in
  check_circuit (build_small ());
  check_circuit (Spsta_experiments.Benchmarks.load "s386")

let test_fanout () =
  let c = build_small () in
  let n2 = Circuit.find_exn c "n2" in
  let q = Circuit.find_exn c "q" in
  Alcotest.(check bool) "n2 drives the flip-flop" true (Array.mem q (Circuit.fanout c n2))

let test_endpoints_dedup () =
  (* n2 is both a PO and a DFF data input: endpoints must list it once *)
  let c = build_small () in
  let n2 = Circuit.find_exn c "n2" in
  let count = List.length (List.filter (fun e -> e = n2) (Circuit.endpoints c)) in
  Alcotest.(check int) "n2 appears once" 1 count

let test_find () =
  let c = build_small () in
  Alcotest.(check bool) "missing net" true (Circuit.find c "nope" = None);
  (* the error must name both the missing net and the circuit *)
  Alcotest.check_raises "find_exn missing"
    (Invalid_argument "Circuit.find_exn: no net \"nope\" in circuit \"small\"") (fun () ->
      ignore (Circuit.find_exn c "nope"))

let expect_invalid f =
  match f () with
  | (_ : Circuit.t) -> Alcotest.fail "expected Invalid_circuit"
  | exception Circuit.Invalid_circuit _ -> ()

let test_undriven_net () =
  expect_invalid (fun () ->
      let b = Circuit.Builder.create () in
      Circuit.Builder.add_input b "a";
      Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "ghost" ];
      Circuit.Builder.add_output b "y";
      Circuit.Builder.finalize b)

let test_duplicate_driver () =
  expect_invalid (fun () ->
      let b = Circuit.Builder.create () in
      Circuit.Builder.add_input b "a";
      Circuit.Builder.add_gate b ~output:"a" Gate_kind.Not [ "a" ];
      Circuit.Builder.finalize b)

let test_combinational_cycle () =
  expect_invalid (fun () ->
      let b = Circuit.Builder.create () in
      Circuit.Builder.add_input b "a";
      Circuit.Builder.add_gate b ~output:"x" Gate_kind.And [ "a"; "y" ];
      Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "x" ];
      Circuit.Builder.add_output b "y";
      Circuit.Builder.finalize b)

let test_cycle_names_nets () =
  (* the error must name exactly the nets on the cycle — not the
     downstream nets that are merely starved by it *)
  let message =
    try
      let b = Circuit.Builder.create () in
      Circuit.Builder.add_input b "a";
      Circuit.Builder.add_gate b ~output:"x" Gate_kind.And [ "a"; "y" ];
      Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "x" ];
      Circuit.Builder.add_gate b ~output:"z" Gate_kind.Not [ "y" ];
      Circuit.Builder.add_output b "z";
      ignore (Circuit.Builder.finalize b);
      Alcotest.fail "cycle accepted"
    with Circuit.Invalid_circuit { message; _ } -> message
  in
  let contains sub =
    let n = String.length sub and len = String.length message in
    let rec go i = i + n <= len && (String.sub message i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names x" true (contains "x");
  Alcotest.(check bool) "names y" true (contains "y");
  Alcotest.(check bool) "does not name downstream z" false (contains "z")

let test_dff_breaks_cycle () =
  (* the same loop through a flip-flop is fine (sequential feedback) *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"x" Gate_kind.And [ "a"; "q" ];
  Circuit.Builder.add_dff b ~q:"q" ~d:"x";
  Circuit.Builder.add_output b "x";
  let c = Circuit.Builder.finalize b in
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count c)

let test_arity_validation () =
  expect_invalid (fun () ->
      let b = Circuit.Builder.create () in
      Circuit.Builder.add_input b "a";
      Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a" ];
      Circuit.Builder.finalize b)

let test_undriven_output () =
  expect_invalid (fun () ->
      let b = Circuit.Builder.create () in
      Circuit.Builder.add_input b "a";
      Circuit.Builder.add_output b "nothing";
      Circuit.Builder.finalize b)

let test_count_gates_of_kind () =
  let c = build_small () in
  Alcotest.(check int) "NOT gates" 2 (Circuit.count_gates_of_kind c Gate_kind.Not);
  Alcotest.(check int) "AND gates" 1 (Circuit.count_gates_of_kind c Gate_kind.And);
  Alcotest.(check int) "XOR gates" 0 (Circuit.count_gates_of_kind c Gate_kind.Xor)

let suite =
  [
    Alcotest.test_case "basic structure" `Quick test_basic_structure;
    Alcotest.test_case "levels and depth" `Quick test_levels_and_depth;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "gates by level" `Quick test_gates_by_level;
    Alcotest.test_case "fanout" `Quick test_fanout;
    Alcotest.test_case "endpoint dedup" `Quick test_endpoints_dedup;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "undriven net rejected" `Quick test_undriven_net;
    Alcotest.test_case "duplicate driver rejected" `Quick test_duplicate_driver;
    Alcotest.test_case "combinational cycle rejected" `Quick test_combinational_cycle;
    Alcotest.test_case "cycle error names the cycle nets" `Quick test_cycle_names_nets;
    Alcotest.test_case "dff breaks cycles" `Quick test_dff_breaks_cycle;
    Alcotest.test_case "gate arity validated" `Quick test_arity_validation;
    Alcotest.test_case "undriven output rejected" `Quick test_undriven_output;
    Alcotest.test_case "count gates of kind" `Quick test_count_gates_of_kind;
  ]
