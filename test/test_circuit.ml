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

(* A copy shares everything but the driver table: retyping on the copy
   must leave the original's driver, cached kind code and SSTA arrivals
   bit-identical, and an unedited copy must analyse exactly as the
   original does. *)
let test_copy_isolates_retype () =
  let module Ssta = Spsta_ssta.Ssta in
  let module Normal = Spsta_dist.Normal in
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let arrivals circuit =
    let r =
      Ssta.analyze
        ~delay_rf:(Spsta_netlist.Cell_library.gate_delays Spsta_netlist.Cell_library.default circuit)
        circuit
    in
    Array.init (Circuit.num_nets circuit) (fun id ->
        let a = Ssta.arrival r id in
        List.map Int64.bits_of_float
          [ Normal.mean a.Ssta.rise; Normal.stddev a.Ssta.rise; Normal.mean a.Ssta.fall;
            Normal.stddev a.Ssta.fall ])
  in
  let before = arrivals c in
  let codes_before = Array.copy (Circuit.csr c).Circuit.kind_code in
  let untouched = Circuit.copy c in
  Alcotest.(check bool) "unedited copy analyses identically" true (arrivals untouched = before);
  let copy = Circuit.copy c in
  let g = (Circuit.topo_gates c).(0) in
  let kind, flipped =
    match Circuit.driver c g with
    | Circuit.Gate { kind; _ } ->
      (* the same function with the output inversion flipped: the arity
         bounds match, and inverting gates swap rise and fall in SSTA *)
      let flipped =
        match kind with
        | Gate_kind.And -> Gate_kind.Nand
        | Gate_kind.Nand -> Gate_kind.And
        | Gate_kind.Or -> Gate_kind.Nor
        | Gate_kind.Nor -> Gate_kind.Or
        | Gate_kind.Xor -> Gate_kind.Xnor
        | Gate_kind.Xnor -> Gate_kind.Xor
        | Gate_kind.Not -> Gate_kind.Buf
        | Gate_kind.Buf -> Gate_kind.Not
      in
      (kind, flipped)
    | Circuit.Input | Circuit.Dff_output _ -> Alcotest.fail "topo gate is not a gate"
  in
  Circuit.retype_gate copy g flipped;
  let kind_of circuit =
    match Circuit.driver circuit g with
    | Circuit.Gate { kind; _ } -> Gate_kind.to_string kind
    | Circuit.Input | Circuit.Dff_output _ -> "source"
  in
  Alcotest.(check string) "copy retyped" (Gate_kind.to_string flipped) (kind_of copy);
  Alcotest.(check string) "original driver kept" (Gate_kind.to_string kind) (kind_of c);
  Alcotest.(check (array int)) "original kind codes kept" codes_before
    (Circuit.csr c).Circuit.kind_code;
  Alcotest.(check int) "copy's kind code follows the retype" (Gate_kind.to_code flipped)
    (Circuit.csr copy).Circuit.kind_code.(Circuit.topo_position copy g);
  Alcotest.(check bool) "original arrivals kept" true (arrivals c = before);
  Alcotest.(check bool) "the retype moved the copy's arrivals" false (arrivals copy = before)

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
    Alcotest.test_case "copy isolates retype" `Quick test_copy_isolates_retype;
  ]

(* Every structural fact the builder derives, net by net, plus the
   outcome of single-fault texts, pinned byte for byte against
   test/golden/netlist_facts.tsv: net ids (declaration order), names,
   drivers, levels, topological positions, fanouts, sources, endpoints
   and level groups, and for each rejected text the exception, its line
   or violation, and its message.  A change to how the reader or the
   builder works must leave every row as it is. *)
module Bench_io = Spsta_netlist.Bench_io

(* a valid netlist using the syntax the reader tolerates: forward
   references, an OUTPUT before its driver (and repeated), flip-flops
   reading later gates, CRLF and tab spacing, inline comments,
   lower-case heads and an empty argument *)
let hand_written_bench =
  "# hand-written\r\n\
   INPUT(a)\r\n\
   input( b )   # lower-case head\r\n\
   OUTPUT(z)\r\n\
   OUTPUT(z)\r\n\
   q1 = dff(g2)\r\n\
   \tg1\t=\tNAND(a,\tq1)\n\
   \n\
   g2 = AND(g1,,b)   # empty argument\n\
   z = or(g2, q2)\n\
   q2 = DFF(z)\n\
   OUTPUT(g1)\n"

let rejected_benches =
  [
    "INPUT x\n";
    "INPUT(x\n";
    "INPUT(a, b)\n";
    "INPUT()\n";
    "WIBBLE(a)\n";
    "WIBBLE(a, b)\n";
    "INPUT(a b)\n";
    "INPUT(a\000)\n";
    "INPUT((a))\n";
    "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
    "INPUT(a)\nOUTPUT(y)\ny = (a)\n";
    "INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)\n";
    "INPUT(a)\nOUTPUT(y)\ny = DFF()\n";
    "INPUT(a)\n = NOT(a)\n";
    "=\n";
    "INPUT(a)\ny z = NOT(a)\n";
    "INPUT(a)=NOT(a)\n";
    "INPUT(a)\nOUTPUT(y)\ny = NOT a\n";
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n";
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a) x\n";
    "INPUT(a)\nOUTPUT(y)\ny = AND(a, b!)\n";
    "INPUT(a)\nOUTPUT(y)\ny = FROB(a, b!)\n";
    "# c\r\n\r\nINPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a\r\n";
    "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n";
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n";
    "INPUT(a)\nINPUT(a)\n";
    "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n";
    "INPUT(a)\nq = DFF(a)\nq = NOT(a)\nOUTPUT(q)\n";
    "INPUT(a)\na = AND(a)\n";
    "INPUT(a)\nINPUT(a)\nWIBBLE(a)\n";
    "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
    "INPUT(a)\nOUTPUT(nothing)\n";
    "INPUT(a)\nq = DFF(ghost)\nOUTPUT(q)\n";
    "INPUT(a)\nOUTPUT(z)\nx = AND(a, y)\ny = AND(a, x)\nz = NOT(y)\n";
    "INPUT(a)\nOUTPUT(x)\nx = AND(a, x)\n";
  ]

let netlist_fact_rows () =
  let rows = ref [] in
  let row fmt = Printf.ksprintf (fun l -> rows := l :: !rows) fmt in
  let ids l = String.concat " " (List.map string_of_int l) in
  let reparsed name =
    let c = Spsta_experiments.Benchmarks.load name in
    Bench_io.parse_string ~name (Bench_io.to_string c)
  in
  let circuits =
    [ Spsta_experiments.Benchmarks.s27 (); Spsta_experiments.Benchmarks.c17 () ]
    @ List.map reparsed [ "s344"; "s1196"; "s5378" ]
    @ [ Bench_io.parse_string ~name:"hand" hand_written_bench ]
  in
  List.iter
    (fun c ->
      row "circuit\t%s\t%d nets\tdepth %d" (Circuit.name c) (Circuit.num_nets c) (Circuit.depth c);
      for n = 0 to Circuit.num_nets c - 1 do
        let driver =
          match Circuit.driver c n with
          | Circuit.Input -> "INPUT"
          | Circuit.Dff_output { data } -> Printf.sprintf "DFF %d" data
          | Circuit.Gate { kind; inputs } ->
            Printf.sprintf "%s %s" (Gate_kind.to_string kind) (ids (Array.to_list inputs))
        in
        row "%d\t%s\t%s\t%d\t%d\t%s" n (Circuit.net_name c n) driver (Circuit.level c n)
          (Circuit.topo_position c n)
          (ids (Array.to_list (Circuit.fanout c n)))
      done;
      row "inputs\t%s" (ids (Circuit.primary_inputs c));
      row "outputs\t%s" (ids (Circuit.primary_outputs c));
      row "sources\t%s" (ids (Circuit.sources c));
      row "endpoints\t%s" (ids (Circuit.endpoints c));
      Array.iter
        (fun gates -> row "level\t%s" (ids (Array.to_list gates)))
        (Circuit.gates_by_level c))
    circuits;
  List.iter
    (fun text ->
      match Bench_io.parse_string text with
      | (_ : Circuit.t) -> row "reject\t%S\taccepted" text
      | exception Bench_io.Parse_error { line; message } ->
        row "reject\t%S\tParse_error\t%d\t%S" text line message
      | exception Circuit.Invalid_circuit { violation; message } ->
        let violation =
          match violation with
          | Circuit.Multiple_drivers -> "Multiple_drivers"
          | Circuit.Undriven -> "Undriven"
          | Circuit.Cycle -> "Cycle"
          | Circuit.Arity -> "Arity"
        in
        row "reject\t%S\tInvalid_circuit\t%s\t%S" text violation message)
    rejected_benches;
  List.rev !rows

let test_netlist_facts_pinned () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "golden/netlist_facts.tsv" in
  let expected =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let rec first_diff i = function
    | e :: es, a :: as_ ->
      if e <> a then Alcotest.failf "line %d:\nexpected %s\n  actual %s" i e a
      else first_diff (i + 1) (es, as_)
    | [], [] -> ()
    | _ -> Alcotest.failf "line %d: the golden and the facts differ in length" i
  in
  first_diff 1 (expected, netlist_fact_rows ())

let suite = suite @ [ Alcotest.test_case "every netlist fact pinned" `Quick test_netlist_facts_pinned ]
