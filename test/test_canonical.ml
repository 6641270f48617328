module Canonical = Spsta_variation.Canonical
module Param_model = Spsta_variation.Param_model
module Canonical_ssta = Spsta_variation.Canonical_ssta
module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Rng = Spsta_util.Rng
module Stats = Spsta_util.Stats

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let form mean sens rand = Canonical.make ~mean ~sens ~rand

let test_moments () =
  let f = form 3.0 [| 0.3; 0.4 |] 0.5 in
  close "variance" 0.5 (Canonical.variance f);
  close "stddev" (sqrt 0.5) (Canonical.stddev f);
  Alcotest.(check int) "nparams" 2 (Canonical.nparams f)

let test_covariance () =
  let a = form 0.0 [| 1.0; 0.0 |] 0.5 in
  let b = form 0.0 [| 1.0; 0.0 |] 0.5 in
  close "shared parameter covariance" 1.0 (Canonical.covariance a b);
  let c = form 0.0 [| 0.0; 1.0 |] 0.0 in
  close "orthogonal parameters" 0.0 (Canonical.covariance a c);
  close "self correlation" 1.0 (Canonical.correlation c c)

let test_add_exact () =
  let a = form 1.0 [| 0.2; 0.0 |] 0.3 in
  let b = form 2.0 [| 0.1; 0.4 |] 0.4 in
  let s = Canonical.add a b in
  close "sum mean" 3.0 s.Canonical.mean;
  close "sum sens 0" 0.3 s.Canonical.sens.(0);
  close "sum sens 1" 0.4 s.Canonical.sens.(1);
  close "sum rand" 0.5 s.Canonical.rand;
  (* variance identity: var(a+b) = var a + var b + 2 cov *)
  close "sum variance identity"
    (Canonical.variance a +. Canonical.variance b +. (2.0 *. Canonical.covariance a b))
    (Canonical.variance s)

let test_scale_negate () =
  let a = form 2.0 [| 0.5 |] 0.25 in
  let s = Canonical.scale a (-2.0) in
  close "scaled mean" (-4.0) s.Canonical.mean;
  close "scaled variance" (4.0 *. Canonical.variance a) (Canonical.variance s);
  let n = Canonical.negate a in
  close "negated mean" (-2.0) n.Canonical.mean;
  close "negation keeps variance" (Canonical.variance a) (Canonical.variance n)

let test_max_matches_clark () =
  (* with disjoint parameters (zero covariance) canonical MAX must match
     plain Clark MAX moments *)
  let a = form 1.0 [| 0.8; 0.0 |] 0.6 in
  let b = form 1.5 [| 0.0; 0.5 |] 0.2 in
  let m = Canonical.max2 a b in
  let clark =
    Spsta_dist.Clark.max_moments
      (Spsta_dist.Normal.make ~mu:1.0 ~sigma:(Canonical.stddev a))
      (Spsta_dist.Normal.make ~mu:1.5 ~sigma:(Canonical.stddev b))
  in
  close "max mean vs Clark" clark.Spsta_dist.Clark.mean m.Canonical.mean ~tol:1e-9;
  close "max variance vs Clark" clark.Spsta_dist.Clark.variance (Canonical.variance m) ~tol:1e-9

let test_max_correlated_inputs () =
  (* identical forms: MAX is the form itself *)
  let a = form 2.0 [| 0.7 |] 0.0 in
  let m = Canonical.max2 a a in
  close "max of identical forms mean" 2.0 m.Canonical.mean;
  close "max of identical forms variance" (Canonical.variance a) (Canonical.variance m)

let test_max_dominant () =
  let late = form 50.0 [| 0.5 |] 0.5 in
  let early = form 0.0 [| 0.3 |] 0.3 in
  let m = Canonical.max2 late early in
  close "dominant mean" 50.0 m.Canonical.mean ~tol:1e-6;
  close "dominant sens" 0.5 m.Canonical.sens.(0) ~tol:1e-6

let test_min_duality () =
  let a = form 1.0 [| 0.4 |] 0.3 and b = form 2.0 [| 0.1 |] 0.6 in
  let mx = Canonical.max2 a b and mn = Canonical.min2 a b in
  close "max+min mean identity" 3.0 (mx.Canonical.mean +. mn.Canonical.mean) ~tol:1e-9

let test_max_against_sampling () =
  (* correlated inputs through a shared parameter: canonical MAX must
     track a Monte Carlo over the same parameter vector *)
  let a = form 1.0 [| 0.8; 0.2 |] 0.3 in
  let b = form 1.2 [| 0.8; -0.4 |] 0.2 in
  let m = Canonical.max2 a b in
  let rng = Rng.create ~seed:123 in
  let acc = Stats.acc_create () in
  for _ = 1 to 200_000 do
    let params = [| Rng.gaussian rng ~mu:0.0 ~sigma:1.0; Rng.gaussian rng ~mu:0.0 ~sigma:1.0 |] in
    let xa = Canonical.sample rng ~params a in
    let xb = Canonical.sample rng ~params b in
    Stats.acc_add acc (Float.max xa xb)
  done;
  close "correlated MAX mean vs MC" (Stats.acc_mean acc) m.Canonical.mean ~tol:0.01;
  close "correlated MAX stddev vs MC" (Stats.acc_stddev acc) (Canonical.stddev m) ~tol:0.01

let test_param_model_basics () =
  let m = Param_model.create ~sigma_global:0.3 ~sigma_spatial:0.4 ~sigma_random:0.5 ~grid:3 () in
  Alcotest.(check int) "params = 1 + 9" 10 (Param_model.num_params m);
  close "total sigma" (sqrt ((0.3 ** 2.) +. (0.4 ** 2.) +. (0.5 ** 2.))) (Param_model.total_sigma m);
  let var = Param_model.total_sigma m ** 2.0 in
  close "same-region correlation" (((0.3 ** 2.) +. (0.4 ** 2.)) /. var)
    (Param_model.delay_correlation m ~same_region:true);
  close "cross-region correlation" ((0.3 ** 2.) /. var)
    (Param_model.delay_correlation m ~same_region:false)

let test_param_model_validation () =
  Alcotest.check_raises "grid" (Invalid_argument "Param_model.create: grid must be positive")
    (fun () -> ignore (Param_model.create ~grid:0 ()));
  Alcotest.check_raises "sigma" (Invalid_argument "Param_model.create: negative sigma")
    (fun () -> ignore (Param_model.create ~sigma_global:(-0.1) ~grid:2 ()))

let test_gate_delay_canonical () =
  let model = Param_model.create ~sigma_global:0.2 ~sigma_spatial:0.3 ~sigma_random:0.1 ~grid:2 () in
  let c = Spsta_experiments.Benchmarks.s27 () in
  let p = Param_model.place ~seed:1 model c in
  let g = (Circuit.topo_gates c).(0) in
  let d = Param_model.gate_delay_canonical model p g in
  close "delay mean" 1.0 d.Canonical.mean;
  close "delay sigma" (Param_model.total_sigma model) (Canonical.stddev d) ~tol:1e-12;
  (* same-region gates correlate as predicted *)
  let h =
    (* find another gate in the same region, if any *)
    Array.to_list (Circuit.topo_gates c)
    |> List.find_opt (fun x -> x <> g && Param_model.region p x = Param_model.region p g)
  in
  match h with
  | Some h ->
    let dh = Param_model.gate_delay_canonical model p h in
    close "same-region correlation" (Param_model.delay_correlation model ~same_region:true)
      (Canonical.correlation d dh) ~tol:1e-12
  | None -> ()

let buffer_chain n =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  let prev = ref "a" in
  for i = 1 to n do
    let name = Printf.sprintf "n%d" i in
    Circuit.Builder.add_gate b ~output:name Gate_kind.Buf [ !prev ];
    prev := name
  done;
  Circuit.Builder.add_output b !prev;
  Circuit.Builder.finalize b

let test_canonical_ssta_chain () =
  (* pure global variation: delays are perfectly correlated, so the
     4-buffer chain sigma is 4 * sigma_global (not sqrt(4)) *)
  let model = Param_model.create ~sigma_global:0.2 ~grid:2 () in
  let c = buffer_chain 4 in
  let p = Param_model.place ~seed:2 model c in
  let r = Canonical_ssta.analyze ~input_sigma:0.0 model p c in
  let out = List.hd (Circuit.primary_outputs c) in
  let a = Canonical_ssta.arrival r out in
  close "chain mean" 4.0 a.Canonical_ssta.rise.Canonical.mean;
  close "correlated chain sigma" 0.8 (Canonical.stddev a.Canonical_ssta.rise) ~tol:1e-9;
  (* independent-only variation gives the sqrt law instead *)
  let model_r = Param_model.create ~sigma_random:0.2 ~grid:2 () in
  let r2 = Canonical_ssta.analyze ~input_sigma:0.0 model_r (Param_model.place model_r c) c in
  let a2 = Canonical_ssta.arrival r2 out in
  close "independent chain sigma" (0.2 *. 2.0) (Canonical.stddev a2.Canonical_ssta.rise) ~tol:1e-9

(* a balanced AND tree over 8 always-rising inputs: every net rises each
   cycle with arrival = MAX over its inputs, which is exactly what the
   min/max-separated analysis computes — residual error is Clark only *)
let and_tree () =
  let b = Circuit.Builder.create () in
  let leaves = List.init 8 (fun i -> Printf.sprintf "i%d" i) in
  List.iter (Circuit.Builder.add_input b) leaves;
  let counter = ref 0 in
  let rec reduce = function
    | [ last ] -> last
    | nets ->
      let rec pair = function
        | x :: y :: rest ->
          incr counter;
          let name = Printf.sprintf "t%d" !counter in
          Circuit.Builder.add_gate b ~output:name Gate_kind.And [ x; y ];
          name :: pair rest
        | [ x ] -> [ x ]
        | [] -> []
      in
      reduce (pair nets)
  in
  let root = reduce leaves in
  Circuit.Builder.add_output b root;
  Circuit.Builder.finalize b

let test_canonical_ssta_vs_sampling () =
  let model = Param_model.create ~sigma_global:0.15 ~sigma_spatial:0.1 ~sigma_random:0.1 ~grid:2 () in
  let c = and_tree () in
  let p = Param_model.place ~seed:3 model c in
  let r = Canonical_ssta.analyze ~input_sigma:0.0 model p c in
  let rng = Rng.create ~seed:31 in
  let target = List.hd (Circuit.primary_outputs c) in
  let acc = Stats.acc_create () in
  for _ = 1 to 20_000 do
    let delay_of = Param_model.sample_delays rng model p c in
    let sim =
      Spsta_sim.Logic_sim.run ~delay_rf:(fun g -> (delay_of g, delay_of g)) c
        ~source_values:(fun _ -> (Spsta_logic.Value4.Rising, 0.0))
    in
    Stats.acc_add acc sim.Spsta_sim.Logic_sim.times.(target)
  done;
  let a = Canonical_ssta.arrival r target in
  let form = a.Canonical_ssta.rise in
  close "canonical SSTA mean vs sampled MC" (Stats.acc_mean acc) form.Canonical.mean ~tol:0.03;
  close "canonical SSTA sigma vs sampled MC" (Stats.acc_stddev acc) (Canonical.stddev form)
    ~tol:0.03

let test_endpoint_correlation () =
  let model = Param_model.create ~sigma_global:0.3 ~grid:2 () in
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let p = Param_model.place ~seed:4 model c in
  let r = Canonical_ssta.analyze ~input_sigma:0.0 model p c in
  match Circuit.endpoints c with
  | e1 :: e2 :: _ ->
    (* pure global variation makes deep endpoints strongly correlated *)
    Alcotest.(check bool) "global variation correlates endpoints" true
      (Canonical_ssta.endpoint_correlation r `Rise e1 e2 > 0.5)
  | _ -> Alcotest.fail "expected at least two endpoints"

let test_chip_delay_dominates () =
  let model = Param_model.create ~sigma_random:0.1 ~grid:2 () in
  let c = Spsta_experiments.Benchmarks.s27 () in
  let p = Param_model.place model c in
  let r = Canonical_ssta.analyze model p c in
  let chip = Canonical_ssta.chip_delay r in
  List.iter
    (fun e ->
      let a = Canonical_ssta.arrival r e in
      Alcotest.(check bool) "chip delay >= endpoint means" true
        (chip.Canonical.mean >= a.Canonical_ssta.rise.Canonical.mean -. 1e-9
        && chip.Canonical.mean >= a.Canonical_ssta.fall.Canonical.mean -. 1e-9))
    (Circuit.endpoints c)

let test_canonical_parallel_bit_identical () =
  (* canonical forms carry a full sensitivity vector; the ?domains
     schedule must reproduce every coefficient exactly *)
  let model =
    Param_model.create ~sigma_global:0.2 ~sigma_spatial:0.15 ~sigma_random:0.1 ~grid:3 ()
  in
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let p = Param_model.place ~seed:9 model c in
  let seq = Canonical_ssta.analyze model p c in
  let check_form name a b =
    close (name ^ " mean") a.Canonical.mean b.Canonical.mean ~tol:0.0;
    close (name ^ " rand") a.Canonical.rand b.Canonical.rand ~tol:0.0;
    Alcotest.(check int) (name ^ " nparams") (Canonical.nparams a) (Canonical.nparams b);
    Array.iteri
      (fun i s -> close (Printf.sprintf "%s sens %d" name i) s b.Canonical.sens.(i) ~tol:0.0)
      a.Canonical.sens
  in
  List.iter
    (fun domains ->
      let par = Canonical_ssta.analyze ~domains model p c in
      for i = 0 to Circuit.num_nets c - 1 do
        let a = Canonical_ssta.arrival seq i and b = Canonical_ssta.arrival par i in
        let name = Printf.sprintf "%s@%d" (Circuit.net_name c i) domains in
        check_form (name ^ " rise") a.Canonical_ssta.rise b.Canonical_ssta.rise;
        check_form (name ^ " fall") a.Canonical_ssta.fall b.Canonical_ssta.fall
      done;
      check_form "chip delay" (Canonical_ssta.chip_delay seq) (Canonical_ssta.chip_delay par))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "moments" `Quick test_moments;
    Alcotest.test_case "canonical SSTA parallel bit-identical" `Quick
      test_canonical_parallel_bit_identical;
    Alcotest.test_case "covariance" `Quick test_covariance;
    Alcotest.test_case "add is exact" `Quick test_add_exact;
    Alcotest.test_case "scale/negate" `Quick test_scale_negate;
    Alcotest.test_case "max = Clark when independent" `Quick test_max_matches_clark;
    Alcotest.test_case "max of identical forms" `Quick test_max_correlated_inputs;
    Alcotest.test_case "max dominant input" `Quick test_max_dominant;
    Alcotest.test_case "min/max duality" `Quick test_min_duality;
    Alcotest.test_case "correlated max vs sampling" `Slow test_max_against_sampling;
    Alcotest.test_case "param model basics" `Quick test_param_model_basics;
    Alcotest.test_case "param model validation" `Quick test_param_model_validation;
    Alcotest.test_case "gate delay canonical" `Quick test_gate_delay_canonical;
    Alcotest.test_case "canonical SSTA chain laws" `Quick test_canonical_ssta_chain;
    Alcotest.test_case "canonical SSTA vs sampled MC" `Slow test_canonical_ssta_vs_sampling;
    Alcotest.test_case "endpoint correlation" `Quick test_endpoint_correlation;
    Alcotest.test_case "chip delay dominates" `Quick test_chip_delay_dominates;
  ]
