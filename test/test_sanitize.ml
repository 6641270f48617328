(* Engine-wired invariant sanitizer: fault injection proves a corrupted
   gate evaluation is reported at exactly the offending net, driver kind
   and logic level, on the sequential and the pooled schedule alike; a
   checked run on a healthy circuit is bit-identical to an unchecked
   one. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Propagate = Spsta_engine.Propagate
module Sanitize = Propagate.Sanitize
module Parallel = Spsta_util.Parallel
module Analyzer = Spsta_core.Analyzer
module Input_spec = Spsta_sim.Input_spec
module Benchmarks = Spsta_experiments.Benchmarks

(* a -> n1 = NOT a -> n2 = AND(n1, b) -> n3 = NOT n2 (PO): three levels
   of gates so the fault can sit strictly inside the circuit *)
let build_chain () =
  let b = Circuit.Builder.create ~name:"chain" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.And [ "n1"; "b" ];
  Circuit.Builder.add_gate b ~output:"n3" Gate_kind.Not [ "n2" ];
  Circuit.Builder.add_output b "n3";
  Circuit.Builder.finalize b

(* Arrival-sum transfer function over floats; [corrupt_at] (a net name)
   makes that gate emit NaN, modelling a broken transfer function. *)
let sum_eval ?corrupt_at circuit id _driver operands =
  let clean = 1.0 +. Array.fold_left Float.max 0.0 operands in
  match corrupt_at with
  | Some name when Circuit.net_name circuit id = name -> Float.nan
  | _ -> clean

let finite_check : float Sanitize.check =
  fun _circuit _id state ->
  if Float.is_finite state then None
  else Some ("non-finite", Printf.sprintf "arrival is %h" state)

let run_checked ?corrupt_at ?domains circuit =
  Propagate.run ~check:finite_check ?domains circuit ~source:(fun _ -> 0.0)
    ~eval:(sum_eval ?corrupt_at)

let test_violation_locates_fault () =
  let circuit = build_chain () in
  match run_checked ~corrupt_at:"n2" circuit with
  | _ -> Alcotest.fail "corrupted evaluation was not caught"
  | exception Sanitize.Violation v ->
    Alcotest.(check string) "circuit" "chain" v.circuit;
    Alcotest.(check string) "net" "n2" v.net;
    Alcotest.(check string) "driver is the gate kind" "AND" v.driver;
    Alcotest.(check int) "level" 2 v.level;
    Alcotest.(check string) "rule" "non-finite" v.rule

let test_fault_at_last_level () =
  let circuit = build_chain () in
  match run_checked ~corrupt_at:"n3" circuit with
  | _ -> Alcotest.fail "corrupted evaluation was not caught"
  | exception Sanitize.Violation v ->
    Alcotest.(check string) "net" "n3" v.net;
    Alcotest.(check string) "driver" "NOT" v.driver;
    Alcotest.(check int) "level" 3 v.level

let test_clean_run_passes () =
  let circuit = build_chain () in
  let result = run_checked circuit in
  Alcotest.(check (float 1e-12)) "po arrival" 3.0
    result.Propagate.per_net.(Circuit.find_exn circuit "n3")

let test_violation_printer () =
  let circuit = build_chain () in
  match run_checked ~corrupt_at:"n2" circuit with
  | _ -> Alcotest.fail "corrupted evaluation was not caught"
  | exception (Sanitize.Violation _ as e) ->
    let s = Printexc.to_string e in
    let contains sub =
      let n = String.length sub and len = String.length s in
      let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "printer names the net (%s)" s) true (contains "n2");
    Alcotest.(check bool) "printer names the circuit" true (contains "chain");
    Alcotest.(check bool) "printer names the rule" true (contains "non-finite")

(* ---------- the pooled schedule ---------- *)

(* Inputs -> one level of [wide] ANDs (pooled at every domain count up
   to [wide / 2]) -> a BUF per wide gate -> an OR over the BUFs.  The
   fault sits in the middle of the wide level, so at [domains > 1] it
   is raised inside a pool chunk, with downstream gates left unvisited. *)
let wide = 64

let build_wide () =
  let b = Circuit.Builder.create ~name:"wide" () in
  for i = 0 to 7 do
    Circuit.Builder.add_input b (Printf.sprintf "i%d" i)
  done;
  for g = 0 to wide - 1 do
    Circuit.Builder.add_gate b ~output:(Printf.sprintf "w%d" g) Gate_kind.And
      [ Printf.sprintf "i%d" (g mod 8); Printf.sprintf "i%d" ((g + 3) mod 8) ];
    Circuit.Builder.add_gate b ~output:(Printf.sprintf "b%d" g) Gate_kind.Buf
      [ Printf.sprintf "w%d" g ]
  done;
  Circuit.Builder.add_gate b ~output:"out" Gate_kind.Or
    (List.init wide (Printf.sprintf "b%d"));
  Circuit.Builder.add_output b "out";
  Circuit.Builder.finalize b

let test_violation_same_when_pooled () =
  let circuit = build_wide () in
  Alcotest.(check bool) "the corrupted level is wider than the pool cutoff" true
    (Array.exists (fun level -> Array.length level > max 16 (2 * 4))
       (Circuit.gates_by_level circuit));
  let locate domains =
    let jobs = Parallel.pool_jobs () in
    match run_checked ~corrupt_at:"w37" ~domains circuit with
    | _ -> Alcotest.failf "corrupted evaluation was not caught at domains=%d" domains
    | exception Sanitize.Violation v ->
      if domains > 1 then
        Alcotest.(check bool) (Printf.sprintf "pooled at domains=%d" domains) true
          (Parallel.pool_jobs () > jobs);
      (v.net, v.driver, v.level)
  in
  let expected = ("w37", "AND", 1) in
  List.iter
    (fun domains ->
      Alcotest.(check (triple string string int))
        (Printf.sprintf "violation at domains=%d" domains)
        expected (locate domains))
    [ 1; 2; 4 ]

let test_checked_pooled_bit_identical () =
  let circuit = build_wide () in
  let unchecked = Propagate.run ~domains:4 circuit ~source:(fun _ -> 0.0) ~eval:sum_eval in
  let checked = run_checked ~domains:4 circuit in
  Alcotest.(check (array int64)) "checked = unchecked at domains=4"
    (Array.map Int64.bits_of_float unchecked.Propagate.per_net)
    (Array.map Int64.bits_of_float checked.Propagate.per_net)

(* ---------- check on/off bit-identity ---------- *)

let test_checked_analyze_bit_identical () =
  let circuit = Benchmarks.load "s27" in
  let spec _ = Input_spec.case_i in
  let unchecked = Analyzer.Moments.analyze ~check:false circuit ~spec in
  let checked = Analyzer.Moments.analyze ~check:true circuit ~spec in
  List.iter
    (fun e ->
      let stats r dir =
        let mu, sigma, p = Analyzer.Moments.transition_stats (Analyzer.Moments.signal r e) dir in
        (mu, sigma, p)
      in
      (* Float.equal (not a tolerance): check-off must be the exact same
         computation, bit for bit *)
      List.iter
        (fun dir ->
          let mu0, s0, p0 = stats unchecked dir and mu1, s1, p1 = stats checked dir in
          Alcotest.(check bool) "mu identical" true (Float.equal mu0 mu1);
          Alcotest.(check bool) "sigma identical" true (Float.equal s0 s1);
          Alcotest.(check bool) "p identical" true (Float.equal p0 p1))
        [ `Rise; `Fall ])
    (Circuit.endpoints circuit)

let test_checked_ssta_bit_identical () =
  let circuit = Benchmarks.load "s27" in
  let unchecked = Spsta_ssta.Ssta.analyze ~check:false circuit in
  let checked = Spsta_ssta.Ssta.analyze ~check:true circuit in
  List.iter
    (fun e ->
      let a0 = Spsta_ssta.Ssta.arrival unchecked e and a1 = Spsta_ssta.Ssta.arrival checked e in
      let open Spsta_dist.Normal in
      Alcotest.(check bool) "rise identical" true
        (Float.equal (mean a0.Spsta_ssta.Ssta.rise) (mean a1.Spsta_ssta.Ssta.rise)
        && Float.equal (stddev a0.Spsta_ssta.Ssta.rise) (stddev a1.Spsta_ssta.Ssta.rise));
      Alcotest.(check bool) "fall identical" true
        (Float.equal (mean a0.Spsta_ssta.Ssta.fall) (mean a1.Spsta_ssta.Ssta.fall)
        && Float.equal (stddev a0.Spsta_ssta.Ssta.fall) (stddev a1.Spsta_ssta.Ssta.fall)))
    (Circuit.endpoints circuit)

(* ---------- all six analyzers complete under --check ---------- *)

let test_all_analyzers_check_clean () =
  let circuit = Benchmarks.load "s344" in
  let spec _ = Input_spec.case_ii in
  ignore (Analyzer.Moments.analyze ~check:true circuit ~spec);
  let module Grid = Analyzer.Make ((val Spsta_core.Top.discrete_backend ~dt:0.1 ())) in
  ignore (Grid.analyze ~check:true circuit ~spec);
  ignore (Spsta_ssta.Ssta.analyze ~check:true circuit);
  ignore (Spsta_ssta.Sta.analyze ~check:true circuit);
  ignore (Spsta_ssta.Bounds_ssta.analyze ~check:true circuit);
  let model =
    Spsta_variation.Param_model.create ~sigma_global:0.1 ~sigma_spatial:0.1 ~sigma_random:0.1
      ~grid:4 ()
  in
  let placement = Spsta_variation.Param_model.place model circuit in
  ignore (Spsta_variation.Canonical_ssta.analyze ~check:true model placement circuit);
  ignore (Spsta_variation.Interval_sta.analyze ~check:true circuit)

(* ---------- resolve / environment plumbing ---------- *)

let test_resolve () =
  Alcotest.(check bool) "explicit true wins" true (Sanitize.resolve (Some true));
  Alcotest.(check bool) "explicit false wins" false (Sanitize.resolve (Some false));
  Unix.putenv "SPSTA_CHECK" "1";
  Alcotest.(check bool) "env on" true (Sanitize.resolve None);
  Unix.putenv "SPSTA_CHECK" "off";
  Alcotest.(check bool) "env off" false (Sanitize.resolve None);
  Unix.putenv "SPSTA_CHECK" ""

let suite =
  [
    Alcotest.test_case "violation names net, gate kind, level" `Quick test_violation_locates_fault;
    Alcotest.test_case "fault at the last level" `Quick test_fault_at_last_level;
    Alcotest.test_case "clean run passes the wrapper" `Quick test_clean_run_passes;
    Alcotest.test_case "violation printer" `Quick test_violation_printer;
    Alcotest.test_case "violation located alike when pooled" `Quick
      test_violation_same_when_pooled;
    Alcotest.test_case "checked pooled sweep is bit-identical" `Quick
      test_checked_pooled_bit_identical;
    Alcotest.test_case "checked analyze is bit-identical" `Quick test_checked_analyze_bit_identical;
    Alcotest.test_case "checked ssta is bit-identical" `Quick test_checked_ssta_bit_identical;
    Alcotest.test_case "all analyzers complete with check on" `Quick
      test_all_analyzers_check_clean;
    Alcotest.test_case "resolve explicit/env" `Quick test_resolve;
  ]
