module Circuit = Spsta_netlist.Circuit
module Bench_io = Spsta_netlist.Bench_io
module Gate_kind = Spsta_logic.Gate_kind

let s27 () = Spsta_experiments.Benchmarks.s27 ()

let test_parse_s27 () =
  let c = s27 () in
  Alcotest.(check int) "inputs" 4 (List.length (Circuit.primary_inputs c));
  Alcotest.(check int) "outputs" 1 (List.length (Circuit.primary_outputs c));
  Alcotest.(check int) "dffs" 3 (List.length (Circuit.dffs c));
  Alcotest.(check int) "gates" 10 (Circuit.gate_count c);
  Alcotest.(check int) "NOR gates" 4 (Circuit.count_gates_of_kind c Gate_kind.Nor);
  Alcotest.(check int) "NOT gates" 2 (Circuit.count_gates_of_kind c Gate_kind.Not)

let test_roundtrip () =
  let c = s27 () in
  let c' = Bench_io.parse_string ~name:"s27" (Bench_io.to_string c) in
  Alcotest.(check int) "nets preserved" (Circuit.num_nets c) (Circuit.num_nets c');
  Alcotest.(check int) "gates preserved" (Circuit.gate_count c) (Circuit.gate_count c');
  Alcotest.(check int) "depth preserved" (Circuit.depth c) (Circuit.depth c');
  (* same drivers net-by-net (by name) *)
  List.iter
    (fun (q, d) ->
      let q' = Circuit.find_exn c' (Circuit.net_name c q) in
      match Circuit.driver c' q' with
      | Circuit.Dff_output { data } ->
        Alcotest.(check string) "dff data preserved" (Circuit.net_name c d) (Circuit.net_name c' data)
      | Circuit.Input | Circuit.Gate _ -> Alcotest.fail "expected DFF")
    (Circuit.dffs c)

let test_comments_and_blanks () =
  let text = "# a comment\n\nINPUT(x)   # trailing comment\nOUTPUT(y)\ny = NOT(x)\n" in
  let c = Bench_io.parse_string text in
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count c)

let test_whitespace_tolerance () =
  let text = "INPUT( x )\nOUTPUT( y )\n  y   =  AND( x ,  x )  \n" in
  let c = Bench_io.parse_string text in
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count c)

let expect_parse_error ~line text =
  match Bench_io.parse_string text with
  | (_ : Circuit.t) -> Alcotest.fail "expected Parse_error"
  | exception Bench_io.Parse_error { line = l; _ } ->
    Alcotest.(check int) "error line" line l

let test_parse_errors () =
  expect_parse_error ~line:1 "INPUT x\n";
  expect_parse_error ~line:2 "INPUT(a)\ny = FROB(a)\n";
  expect_parse_error ~line:1 "WIBBLE(a)\n";
  expect_parse_error ~line:3 "INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)\n";
  expect_parse_error ~line:1 "INPUT(a b)\n"

let test_buff_alias () =
  let c = Bench_io.parse_string "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n" in
  Alcotest.(check int) "BUFF parsed as BUF" 1 (Circuit.count_gates_of_kind c Gate_kind.Buf)

let test_invalid_circuit_propagates () =
  Alcotest.(check bool) "undriven ref raises Invalid_circuit" true
    ( match Bench_io.parse_string "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" with
    | (_ : Circuit.t) -> false
    | exception Circuit.Invalid_circuit _ -> true )

let test_generator_roundtrip () =
  let profile =
    { Spsta_netlist.Generator.name = "rt"; n_inputs = 5; n_outputs = 3; n_dffs = 4;
      n_gates = 40; target_depth = 5; seed = 99 }
  in
  let c = Spsta_netlist.Generator.generate profile in
  let c' = Bench_io.parse_string ~name:"rt" (Bench_io.to_string c) in
  Alcotest.(check int) "generated circuit roundtrips" (Circuit.num_nets c) (Circuit.num_nets c');
  Alcotest.(check int) "depth roundtrips" (Circuit.depth c) (Circuit.depth c')

let test_write_file () =
  let path = Filename.temp_file "spsta_test" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bench_io.write_file (s27 ()) path;
      let c = Bench_io.parse_file path in
      Alcotest.(check bool) "name from filename" true (String.length (Circuit.name c) > 0);
      Alcotest.(check int) "gates" 10 (Circuit.gate_count c))

(* A circuit as the builder froze it, id by id: names, drivers, the
   output list and the circuit name.  Two readers that feed the builder
   the same declarations give equal digests. *)
let digest c =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\n" (Circuit.name c);
  for n = 0 to Circuit.num_nets c - 1 do
    Printf.bprintf b "%d %s " n (Circuit.net_name c n);
    (match Circuit.driver c n with
    | Circuit.Input -> Buffer.add_string b "INPUT"
    | Circuit.Dff_output { data } -> Printf.bprintf b "DFF %d" data
    | Circuit.Gate { kind; inputs } ->
      Buffer.add_string b (Gate_kind.to_string kind);
      Array.iter (Printf.bprintf b " %d") inputs);
    Buffer.add_char b '\n'
  done;
  List.iter (Printf.bprintf b "out %d\n") (Circuit.primary_outputs c);
  Buffer.contents b

type outcome =
  | Parsed of string
  | Parse_failed of int * string
  | Rejected of Circuit.violation * string

(* any other exception escapes, and fails the property *)
let outcome parse text =
  match parse text with
  | c -> Parsed (digest c)
  | exception Bench_io.Parse_error { line; message } -> Parse_failed (line, message)
  | exception Circuit.Invalid_circuit { violation; message } -> Rejected (violation, message)

type mutation = Truncate of int | Flip of int * int | Insert of int * char

let mutate text m =
  let n = String.length text in
  match m with
  | Truncate p -> String.sub text 0 (p mod (n + 1))
  | Flip (p, mask) when n > 0 ->
    let p = p mod n in
    String.mapi (fun i c -> if i = p then Char.chr (Char.code c lxor mask) else c) text
  | Flip _ -> text
  | Insert (p, c) ->
    let p = p mod (n + 1) in
    String.sub text 0 p ^ String.make 1 c ^ String.sub text p (n - p)

let fuzz_bases =
  [|
    Bench_io.to_string (s27 ());
    Bench_io.to_string (Spsta_experiments.Benchmarks.c17 ());
    Test_circuit.hand_written_bench;
    "# c\r\nINPUT(a)\r\nINPUT(b)  # in\r\nOUTPUT(y)\r\n\ty = nand(a,, b)\r\nq = DFF(y)\r\nz = OR(q, a)\r\nOUTPUT(z)";
  |]

let mutated_text =
  let open QCheck.Gen in
  let mutation =
    oneof
      [
        map (fun p -> Truncate p) nat;
        map2 (fun p mask -> Flip (p, mask)) nat (int_range 1 255);
        map2
          (fun p c -> Insert (p, c))
          nat
          (oneofl [ '#'; ','; '('; ')'; '='; '\000'; '\r' ]);
      ]
  in
  let text =
    map2
      (fun base ms -> List.fold_left mutate fuzz_bases.(base) ms)
      (int_bound (Array.length fuzz_bases - 1))
      (list_size (int_range 1 4) mutation)
  in
  QCheck.make ~print:(Printf.sprintf "%S") text

(* the index scan and the line-based oracle agree on every mutated
   text: the same circuit, or the same error with the same line,
   violation and message *)
let reader_matches_oracle =
  QCheck.Test.make ~name:"reader = line-based oracle on mutated texts" ~count:3000 mutated_text
    (fun text -> outcome Bench_io.parse_string text = outcome Bench_oracle.parse_string text)

let generator_profile =
  let open QCheck.Gen in
  let gen =
    map
      (fun (((n_inputs, n_outputs), (n_dffs, extra)), (target_depth, seed)) ->
        { Spsta_netlist.Generator.name = "rt"; n_inputs; n_outputs; n_dffs;
          n_gates = target_depth + extra; target_depth; seed })
      (pair
         (pair (pair (int_range 1 6) (int_range 1 4)) (pair (int_range 0 4) (int_range 0 40)))
         (pair (int_range 1 6) nat))
  in
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "%d in, %d out, %d dffs, %d gates, depth %d, seed %d"
        p.Spsta_netlist.Generator.n_inputs p.n_outputs p.n_dffs p.n_gates p.target_depth p.seed)
    gen

(* Writing and re-reading keeps every net's name and driver, and the
   interface lists, name for name.  The reader numbers nets in the order
   the writer declares them: inputs, flip-flops, then gates in the
   original's topological order. *)
let generator_roundtrip =
  QCheck.Test.make ~name:"parse (to_string c) keeps names, drivers and ids" ~count:300
    generator_profile (fun p ->
      let c = Spsta_netlist.Generator.generate p in
      let c1 = Bench_io.parse_string ~name:"rt" (Bench_io.to_string c) in
      let named circuit i =
        match Circuit.driver circuit i with
        | Circuit.Input -> "INPUT"
        | Circuit.Dff_output { data } -> "DFF " ^ Circuit.net_name circuit data
        | Circuit.Gate { kind; inputs } ->
          String.concat " "
            (Gate_kind.to_string kind
            :: Array.to_list (Array.map (Circuit.net_name circuit) inputs))
      in
      let by_name circuit ids = List.map (Circuit.net_name circuit) ids in
      let declared =
        Circuit.primary_inputs c @ List.map fst (Circuit.dffs c)
        @ Array.to_list (Circuit.topo_gates c)
      in
      by_name c declared = List.init (Circuit.num_nets c1) (Circuit.net_name c1)
      && List.for_all (fun i -> named c i = named c1 (Circuit.find_exn c1 (Circuit.net_name c i))) declared
      && by_name c (Circuit.primary_inputs c) = by_name c1 (Circuit.primary_inputs c1)
      && by_name c (Circuit.primary_outputs c) = by_name c1 (Circuit.primary_outputs c1)
      && List.map (fun (q, d) -> by_name c [ q; d ]) (Circuit.dffs c)
         = List.map (fun (q, d) -> by_name c1 [ q; d ]) (Circuit.dffs c1))

let suite =
  [
    Alcotest.test_case "parse s27" `Quick test_parse_s27;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "whitespace tolerance" `Quick test_whitespace_tolerance;
    Alcotest.test_case "parse errors with line numbers" `Quick test_parse_errors;
    Alcotest.test_case "BUFF alias" `Quick test_buff_alias;
    Alcotest.test_case "invalid circuit propagates" `Quick test_invalid_circuit_propagates;
    Alcotest.test_case "generator roundtrip" `Quick test_generator_roundtrip;
    Alcotest.test_case "write_file/parse_file" `Quick test_write_file;
    QCheck_alcotest.to_alcotest reader_matches_oracle;
    QCheck_alcotest.to_alcotest generator_roundtrip;
  ]
