(* Static checker: one test per rule in the catalogue, on hand-built
   defective circuits (or netlist files for the defects the Builder
   refuses to finalize), plus reporting/exit-code conventions and a
   clean-circuit pass over the bundled benchmark suite.  The dead-logic
   rule reads constant-free observability; the recursive fan-in walk it
   replaced is kept here as its oracle. *)

module Lint = Spsta_lint.Lint
module Circuit = Spsta_netlist.Circuit
module Cell_library = Spsta_netlist.Cell_library
module Gate_kind = Spsta_logic.Gate_kind
module Input_spec = Spsta_sim.Input_spec
module Normal = Spsta_dist.Normal
module Rng = Spsta_util.Rng

let rules_of findings = List.map (fun f -> f.Lint.rule) findings

let has_rule rule findings = List.mem rule (rules_of findings)

let check_rule name rule findings =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got: %s)" name rule
       (String.concat ", " (rules_of findings)))
    true (has_rule rule findings)

let check_no_rule name rule findings =
  Alcotest.(check bool) (Printf.sprintf "%s does not report %s" name rule) false
    (has_rule rule findings)

let find_rule rule findings = List.find (fun f -> f.Lint.rule = rule) findings

(* Reference circuit with one of each warning-level structural defect:
   q is a self-looped flip-flop, dup doubles an input, dangle drives
   nothing, dead feeds only dangling logic, unused drives nothing. *)
let build_defective () =
  let b = Circuit.Builder.create ~name:"defective" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "unused";
  Circuit.Builder.add_dff b ~q:"q" ~d:"q";
  Circuit.Builder.add_gate b ~output:"dup" Gate_kind.And [ "a"; "a" ];
  Circuit.Builder.add_gate b ~output:"dead" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"dangle" Gate_kind.Not [ "dead" ];
  Circuit.Builder.add_gate b ~output:"po" Gate_kind.Or [ "a"; "dup" ];
  Circuit.Builder.add_output b "po";
  Circuit.Builder.finalize b

let build_clean () =
  let b = Circuit.Builder.create ~name:"clean" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.And [ "a"; "b" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let with_bench_file content f =
  let path = Filename.temp_file "lint" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

(* ---------- structural rules ---------- *)

let test_clean_circuit () =
  Alcotest.(check (list string)) "no findings" [] (rules_of (Lint.check_structure (build_clean ())))

let test_dff_self_loop () =
  let findings = Lint.check_structure (build_defective ()) in
  check_rule "self-looped dff" "dff-self-loop" findings;
  Alcotest.(check (list string)) "names q" [ "q" ] (find_rule "dff-self-loop" findings).Lint.nets

let test_duplicate_fanin () =
  let findings = Lint.check_structure (build_defective ()) in
  check_rule "doubled input" "duplicate-fanin" findings;
  Alcotest.(check (list string)) "names gate and input" [ "dup"; "a" ]
    (find_rule "duplicate-fanin" findings).Lint.nets

let test_dangling_net () =
  let findings = Lint.check_structure (build_defective ()) in
  check_rule "fanout-free gate" "dangling-net" findings;
  Alcotest.(check (list string)) "names dangle" [ "dangle" ]
    (find_rule "dangling-net" findings).Lint.nets

let test_dead_logic () =
  let findings = Lint.check_structure (build_defective ()) in
  check_rule "gate feeding only dangling logic" "dead-logic" findings;
  Alcotest.(check (list string)) "names dead" [ "dead" ]
    (find_rule "dead-logic" findings).Lint.nets

(* The original dead-logic walk: nets from which a timing endpoint is
   reachable, marking fan-in edges backwards from the endpoints. *)
let alive_oracle circuit =
  let alive = Array.make (Circuit.num_nets circuit) false in
  let rec mark id =
    if not alive.(id) then begin
      alive.(id) <- true;
      match Circuit.driver circuit id with
      | Circuit.Input | Circuit.Dff_output _ -> ()
      | Circuit.Gate { inputs; _ } -> Array.iter mark inputs
    end
  in
  List.iter mark (Circuit.endpoints circuit);
  alive

(* dead-logic nets as the rule defines them on top of the walk: gates no
   endpoint sees, except dangling ones (those are [dangling-net]) *)
let expected_dead circuit =
  let alive = alive_oracle circuit in
  let endpoints = Circuit.endpoints circuit in
  List.init (Circuit.num_nets circuit) Fun.id
  |> List.filter (fun id ->
         match Circuit.driver circuit id with
         | Circuit.Gate _ ->
           let dangling =
             Array.length (Circuit.fanout circuit id) = 0 && not (List.mem id endpoints)
           in
           (not alive.(id)) && not dangling
         | Circuit.Input | Circuit.Dff_output _ -> false)
  |> List.map (Circuit.net_name circuit)

let reported_dead circuit =
  List.concat_map
    (fun f -> if f.Lint.rule = "dead-logic" then f.Lint.nets else [])
    (Lint.check_structure circuit)

let check_dead_matches_oracle what circuit =
  Alcotest.(check (list string))
    (what ^ ": dead-logic findings = fan-in walk")
    (expected_dead circuit) (reported_dead circuit)

(* Random netlists with plenty of dead logic: gates read earlier nets at
   random, only a few become outputs, and flip-flops capture arbitrary
   gates — so dead cones, dangling tips and register-fed logic all
   occur. *)
let random_netlist seed =
  let rng = Rng.create ~seed in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "lintq%d" seed) () in
  let nets = ref [||] in
  let add name = nets := Array.append !nets [| name |] in
  for i = 0 to 1 + Rng.int rng 5 do
    let name = Printf.sprintf "i%d" i in
    Circuit.Builder.add_input b name;
    add name
  done;
  let n_dffs = Rng.int rng 4 in
  for k = 0 to n_dffs - 1 do
    add (Printf.sprintf "q%d" k)
  done;
  let n_gates = 5 + Rng.int rng 60 in
  let kinds =
    Gate_kind.[| And; Nand; Or; Nor; Xor; Not; Buf |]
  in
  for g = 0 to n_gates - 1 do
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let arity =
      match Gate_kind.max_arity kind with
      | Some m -> m
      | None -> Gate_kind.min_arity kind + Rng.int rng 2
    in
    let inputs = List.init arity (fun _ -> !nets.(Rng.int rng (Array.length !nets))) in
    let name = Printf.sprintf "g%d" g in
    Circuit.Builder.add_gate b ~output:name kind inputs;
    add name
  done;
  let gate_name () = Printf.sprintf "g%d" (Rng.int rng n_gates) in
  for k = 0 to n_dffs - 1 do
    Circuit.Builder.add_dff b ~q:(Printf.sprintf "q%d" k) ~d:(gate_name ())
  done;
  List.iter (Circuit.Builder.add_output b)
    (List.sort_uniq compare (List.init (1 + Rng.int rng 3) (fun _ -> gate_name ())));
  Circuit.Builder.finalize b

let test_dead_logic_oracle_suite () =
  List.iter
    (fun name -> check_dead_matches_oracle name (Spsta_experiments.Benchmarks.load name))
    ("c17" :: "s27" :: Spsta_experiments.Benchmarks.evaluated_names);
  (* the random generator below must actually produce dead logic *)
  let with_dead =
    List.init 50 Fun.id
    |> List.filter (fun seed -> expected_dead (random_netlist seed) <> [])
    |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "random netlists carry dead logic (%d/50)" with_dead)
    true (with_dead >= 10)

let prop_dead_logic_oracle =
  QCheck.Test.make ~name:"dead-logic oracle: random netlists" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      check_dead_matches_oracle (Printf.sprintf "seed %d" seed) (random_netlist seed);
      true)

let test_unused_input () =
  let findings = Lint.check_structure (build_defective ()) in
  check_rule "input driving nothing" "unused-input" findings;
  Alcotest.(check (list string)) "names unused" [ "unused" ]
    (find_rule "unused-input" findings).Lint.nets

let test_high_fanin () =
  let b = Circuit.Builder.create () in
  let inputs = List.init 7 (fun i -> Printf.sprintf "i%d" i) in
  List.iter (Circuit.Builder.add_input b) inputs;
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.And inputs;
  Circuit.Builder.add_output b "y";
  let findings = Lint.check_structure (Circuit.Builder.finalize b) in
  check_rule "7-input AND" "high-fanin" findings;
  (* at the threshold itself there is no finding *)
  let b = Circuit.Builder.create () in
  let inputs = List.init 6 (fun i -> Printf.sprintf "i%d" i) in
  List.iter (Circuit.Builder.add_input b) inputs;
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.And inputs;
  Circuit.Builder.add_output b "y";
  check_no_rule "6-input AND" "high-fanin" (Lint.check_structure (Circuit.Builder.finalize b))

let test_no_endpoints () =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Not [ "a" ];
  let findings = Lint.check_structure (Circuit.Builder.finalize b) in
  check_rule "output-free circuit" "no-endpoints" findings

let test_no_sources_unrepresentable () =
  (* every finalized net chain bottoms out at an input or flip-flop, so
     a non-empty circuit always has a source; the rule exists for
     circuits built by future front ends and must stay quiet here *)
  check_no_rule "defective circuit still has sources" "no-sources"
    (Lint.check_structure (build_defective ()))

(* ---------- builder rejections via lint_path ---------- *)

let test_undriven_net () =
  with_bench_file "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" (fun path ->
      let findings = Lint.lint_path path in
      check_rule "ghost input" "undriven-net" findings;
      Alcotest.(check int) "exit 3" 3 (Lint.exit_code findings))

let test_multiply_driven_net () =
  with_bench_file "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = AND(a, a)\n" (fun path ->
      check_rule "two drivers" "multiply-driven-net" (Lint.lint_path path))

let test_combinational_cycle () =
  with_bench_file "INPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = AND(a, x)\n" (fun path ->
      let findings = Lint.lint_path path in
      check_rule "loop" "combinational-cycle" findings;
      let f = find_rule "combinational-cycle" findings in
      let contains sub s =
        let n = String.length sub and len = String.length s in
        let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the cycle nets" true
        (contains "x" f.Lint.message && contains "y" f.Lint.message))

let test_arity_mismatch () =
  with_bench_file "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n" (fun path ->
      check_rule "1-input AND" "arity-mismatch" (Lint.lint_path path))

(* the rule comes from the builder's violation, not from the message,
   which names nets: a net called cycle_q is not a cycle *)
let test_rule_not_from_net_name () =
  with_bench_file "INPUT(a)\nOUTPUT(cycle_q)\ncycle_q = AND(a)\n" (fun path ->
      let findings = Lint.lint_path path in
      check_rule "1-input AND on cycle_q" "arity-mismatch" findings;
      check_no_rule "not a cycle" "combinational-cycle" findings)

let test_parse_error () =
  with_bench_file "INPUT(a)\nthis is not bench syntax\n" (fun path ->
      check_rule "garbage line" "parse-error" (Lint.lint_path path))

let test_io_error () =
  let findings = Lint.lint_path "/nonexistent/no/such/file.bench" in
  check_rule "missing file" "io-error" findings;
  Alcotest.(check int) "exit 3" 3 (Lint.exit_code findings)

(* ---------- cell library rules ---------- *)

let test_lib_invalid_delay () =
  (* NaN slips past Cell_library.make's negativity check; lint catches it *)
  let library =
    Cell_library.make
      ~base:(fun _ -> Float.nan)
      ~per_input:(fun _ -> 0.0)
      ~rise_fall_skew:(fun _ -> 0.0)
  in
  check_rule "NaN base delay" "lib-invalid-delay" (Lint.check_library library (build_clean ()))

let test_lib_zero_delay () =
  let library =
    Cell_library.make
      ~base:(fun _ -> 0.0)
      ~per_input:(fun _ -> 0.0)
      ~rise_fall_skew:(fun _ -> 0.0)
  in
  check_rule "zero delay" "lib-zero-delay" (Lint.check_library library (build_clean ()));
  check_no_rule "unit delay clean" "lib-zero-delay"
    (Lint.check_library Cell_library.unit_delay (build_clean ()))

(* ---------- input statistics rules ---------- *)

let bad_prob_spec =
  { Input_spec.case_i with Input_spec.p_zero = 0.6; p_one = 0.6; p_rise = 0.0; p_fall = 0.0 }

let bad_arrival_spec =
  { Input_spec.case_i with
    Input_spec.rise_arrival = { Normal.mu = Float.nan; sigma = 1.0 } }

let test_spec_probability () =
  let findings = Lint.check_spec ~spec:(fun _ -> bad_prob_spec) (build_clean ()) in
  check_rule "sum 1.2" "spec-probability" findings;
  check_no_rule "valid case_i" "spec-probability"
    (Lint.check_spec ~spec:(fun _ -> Input_spec.case_i) (build_clean ()))

let test_spec_arrival () =
  let findings = Lint.check_spec ~spec:(fun _ -> bad_arrival_spec) (build_clean ()) in
  check_rule "NaN arrival mean" "spec-arrival" findings

(* ---------- grid rules ---------- *)

let test_grid_dt () =
  check_rule "dt = 0" "grid-dt" (Lint.check_grid ~dt:0.0 ~truncate_eps:1e-9 (build_clean ()))

let test_grid_eps () =
  check_rule "eps >= 1" "grid-eps" (Lint.check_grid ~dt:0.1 ~truncate_eps:1.5 (build_clean ()))

let test_grid_error_bound () =
  let c = build_clean () in
  check_rule "fat eps" "grid-error-bound" (Lint.check_grid ~dt:0.1 ~truncate_eps:1e-3 c);
  check_no_rule "tight eps" "grid-error-bound" (Lint.check_grid ~dt:0.1 ~truncate_eps:1e-9 c)

let test_grid_dt_coarse () =
  let c = build_clean () in
  let spec _ = Input_spec.case_i in
  check_rule "dt above sigma" "grid-dt-coarse"
    (Lint.check_grid ~spec ~dt:2.0 ~truncate_eps:1e-9 c);
  check_no_rule "dt below sigma" "grid-dt-coarse"
    (Lint.check_grid ~spec ~dt:0.1 ~truncate_eps:1e-9 c)

(* ---------- reporting ---------- *)

let test_every_finding_rule_catalogued () =
  let catalogue = List.map (fun (r, _, _) -> r) Lint.rules in
  let findings =
    Lint.check_circuit ~library:Cell_library.unit_delay
      ~spec:(fun _ -> bad_prob_spec)
      ~grid:(2.0, 1e-3) (build_defective ())
  in
  Alcotest.(check bool) "non-empty" true (findings <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f.Lint.rule ^ " catalogued") true (List.mem f.Lint.rule catalogue))
    findings

let test_exit_codes () =
  let error = [ List.hd (Lint.check_grid ~dt:0.0 ~truncate_eps:1e-9 (build_clean ())) ] in
  let warning = Lint.check_structure (build_defective ()) in
  Alcotest.(check int) "errors exit 3" 3 (Lint.exit_code error);
  Alcotest.(check int) "warnings exit 0" 0 (Lint.exit_code warning);
  Alcotest.(check int) "warnings strict exit 4" 4 (Lint.exit_code ~strict:true warning);
  Alcotest.(check int) "clean exit 0" 0 (Lint.exit_code []);
  Alcotest.(check int) "clean strict exit 0" 0 (Lint.exit_code ~strict:true [])

let test_counts () =
  let findings = Lint.check_structure (build_defective ()) in
  Alcotest.(check int) "no errors" 0 (Lint.count Lint.Error findings);
  Alcotest.(check bool) "warnings present" true (Lint.count Lint.Warning findings > 0);
  Alcotest.(check bool) "has_errors false" false (Lint.has_errors findings)

let test_render_text () =
  let findings = Lint.check_structure (build_defective ()) in
  let text = Lint.render_text findings in
  Alcotest.(check bool) "mentions rule tag" true
    (String.length text > 0
    &&
    let contains sub s =
      let n = String.length sub and len = String.length s in
      let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    contains "[dangling-net]" text);
  Alcotest.(check string) "empty findings render empty" "" (Lint.render_text [])

let test_json_output () =
  let findings = Lint.check_structure (build_defective ()) in
  let json = Lint.json_of_findings ~subject:"defective" findings in
  (* must be valid JSON with the expected shape: reuse the server codec *)
  match Spsta_server.Json.of_string json with
  | Spsta_server.Json.Obj fields ->
    let member name = List.assoc_opt name fields in
    Alcotest.(check bool) "subject" true (member "subject" = Some (Spsta_server.Json.Str "defective"));
    (match member "findings" with
    | Some (Spsta_server.Json.List items) ->
      Alcotest.(check int) "one JSON object per finding" (List.length findings)
        (List.length items)
    | _ -> Alcotest.fail "findings must be a JSON array");
    (match member "warnings" with
    | Some (Spsta_server.Json.Num n) ->
      Alcotest.(check int) "warning count" (Lint.count Lint.Warning findings) (int_of_float n)
    | _ -> Alcotest.fail "warnings must be a number")
  | _ -> Alcotest.fail "lint --json must emit a JSON object"

let test_suite_benchmarks_clean () =
  (* the bundled suite must lint without Error findings (warnings are
     expected in the synthetic netlists) *)
  List.iter
    (fun name ->
      let circuit = Spsta_experiments.Benchmarks.load name in
      let findings =
        Lint.check_circuit ~library:Cell_library.unit_delay
          ~spec:(fun _ -> Input_spec.case_i)
          ~grid:(0.1, 1e-9) circuit
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s has no Error findings" name)
        false (Lint.has_errors findings))
    ("c17" :: "s27" :: Spsta_experiments.Benchmarks.evaluated_names)

let suite =
  [
    Alcotest.test_case "clean circuit has no findings" `Quick test_clean_circuit;
    Alcotest.test_case "dff-self-loop" `Quick test_dff_self_loop;
    Alcotest.test_case "duplicate-fanin" `Quick test_duplicate_fanin;
    Alcotest.test_case "dangling-net" `Quick test_dangling_net;
    Alcotest.test_case "dead-logic" `Quick test_dead_logic;
    Alcotest.test_case "dead-logic oracle: bundled suite" `Quick
      test_dead_logic_oracle_suite;
    QCheck_alcotest.to_alcotest prop_dead_logic_oracle;
    Alcotest.test_case "unused-input" `Quick test_unused_input;
    Alcotest.test_case "high-fanin" `Quick test_high_fanin;
    Alcotest.test_case "no-endpoints" `Quick test_no_endpoints;
    Alcotest.test_case "no-sources never fires on built circuits" `Quick
      test_no_sources_unrepresentable;
    Alcotest.test_case "undriven-net via file" `Quick test_undriven_net;
    Alcotest.test_case "multiply-driven-net via file" `Quick test_multiply_driven_net;
    Alcotest.test_case "combinational-cycle via file names nets" `Quick test_combinational_cycle;
    Alcotest.test_case "arity-mismatch via file" `Quick test_arity_mismatch;
    Alcotest.test_case "rule from violation" `Quick test_rule_not_from_net_name;
    Alcotest.test_case "parse-error" `Quick test_parse_error;
    Alcotest.test_case "io-error" `Quick test_io_error;
    Alcotest.test_case "lib-invalid-delay" `Quick test_lib_invalid_delay;
    Alcotest.test_case "lib-zero-delay" `Quick test_lib_zero_delay;
    Alcotest.test_case "spec-probability" `Quick test_spec_probability;
    Alcotest.test_case "spec-arrival" `Quick test_spec_arrival;
    Alcotest.test_case "grid-dt" `Quick test_grid_dt;
    Alcotest.test_case "grid-eps" `Quick test_grid_eps;
    Alcotest.test_case "grid-error-bound" `Quick test_grid_error_bound;
    Alcotest.test_case "grid-dt-coarse" `Quick test_grid_dt_coarse;
    Alcotest.test_case "all findings catalogued" `Quick test_every_finding_rule_catalogued;
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "severity counts" `Quick test_counts;
    Alcotest.test_case "text rendering" `Quick test_render_text;
    Alcotest.test_case "json rendering round-trips" `Quick test_json_output;
    Alcotest.test_case "bundled suite lints without errors" `Quick test_suite_benchmarks_clean;
  ]
