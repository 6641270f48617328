module Cell_library = Spsta_netlist.Cell_library
module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Input_spec = Spsta_sim.Input_spec
module A = Spsta_core.Analyzer.Moments

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let test_unit_delay () =
  List.iter
    (fun kind ->
      List.iter
        (fun fanin ->
          close "unit rise" 1.0 (Cell_library.delay Cell_library.unit_delay kind ~fanin `Rise);
          close "unit fall" 1.0 (Cell_library.delay Cell_library.unit_delay kind ~fanin `Fall))
        [ 1; 2; 4 ])
    [ Gate_kind.Not; Gate_kind.And; Gate_kind.Xor ]

let test_fanin_scaling () =
  let lib = Cell_library.default in
  let mean_delay ~fanin =
    let r, f = Cell_library.rise_fall_of lib Gate_kind.And ~fanin in
    (r +. f) /. 2.0
  in
  let d2 = mean_delay ~fanin:2 in
  let d4 = mean_delay ~fanin:4 in
  Alcotest.(check bool) "fan-in increases delay" true (d4 > d2);
  close "linear increment" (d2 +. (2.0 *. 0.15)) d4 ~tol:1e-12

let test_rise_fall_skew () =
  let lib = Cell_library.default in
  let rise, fall = Cell_library.rise_fall_of lib Gate_kind.Nand ~fanin:2 in
  Alcotest.(check bool) "NAND rises slower" true (rise > fall);
  let r_sym, f_sym = Cell_library.rise_fall_of lib Gate_kind.And ~fanin:2 in
  close "AND symmetric" r_sym f_sym

let test_make_validation () =
  Alcotest.check_raises "negative base" (Invalid_argument "Cell_library.make: negative base delay")
    (fun () ->
      ignore
        (Cell_library.make ~base:(fun _ -> -1.0) ~per_input:(fun _ -> 0.0)
           ~rise_fall_skew:(fun _ -> 0.0)));
  Alcotest.check_raises "skew too large"
    (Invalid_argument "Cell_library.make: skew magnitude must be below 1") (fun () ->
      ignore
        (Cell_library.make ~base:(fun _ -> 1.0) ~per_input:(fun _ -> 0.0)
           ~rise_fall_skew:(fun _ -> 1.0)))

let nand_gate () =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Nand [ "a"; "b" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let test_gate_delays_accessor () =
  let c = nand_gate () in
  let y = Circuit.find_exn c "y" in
  let rise, fall = Cell_library.gate_delays Cell_library.default c y in
  let er, ef = Cell_library.rise_fall_of Cell_library.default Gate_kind.Nand ~fanin:2 in
  close "rise accessor" er rise;
  close "fall accessor" ef fall;
  Alcotest.check_raises "source net"
    (Invalid_argument "Cell_library.gate_delays: net is not gate-driven") (fun () ->
      ignore (Cell_library.gate_delays Cell_library.default c (Circuit.find_exn c "a")))

(* simulator and SPSTA must both apply the direction-correct delay *)
let test_sim_uses_direction_delay () =
  let c = nand_gate () in
  let lib = Cell_library.default in
  let delay_rf = Cell_library.gate_delays lib c in
  let y = Circuit.find_exn c "y" in
  (* both inputs fall at t=2: NAND output rises *)
  let sim_rise =
    Spsta_sim.Logic_sim.run ~delay_rf c ~source_values:(fun _ -> (Value4.Falling, 2.0))
  in
  let er, ef = Cell_library.rise_fall_of lib Gate_kind.Nand ~fanin:2 in
  close "sim rise time" (2.0 +. er) sim_rise.Spsta_sim.Logic_sim.times.(y);
  (* both inputs rise at t=2: NAND output falls at MAX + fall delay *)
  let sim_fall =
    Spsta_sim.Logic_sim.run ~delay_rf c ~source_values:(fun s ->
        if Circuit.net_name c s = "a" then (Value4.Rising, 2.0) else (Value4.Rising, 3.0))
  in
  close "sim fall time" (3.0 +. ef) sim_fall.Spsta_sim.Logic_sim.times.(y)

let test_spsta_uses_direction_delay () =
  let c = nand_gate () in
  let lib = Cell_library.default in
  let delay_rf = Cell_library.gate_delays lib c in
  (* deterministic falling inputs at t=2 -> NAND rises *)
  let spec _ =
    Input_spec.make
      ~fall_arrival:(Spsta_dist.Normal.make ~mu:2.0 ~sigma:0.0)
      ~p_zero:0.0 ~p_one:0.0 ~p_rise:0.0 ~p_fall:1.0 ()
  in
  let r = A.analyze ~delay_rf c ~spec in
  let y = Circuit.find_exn c "y" in
  let mu, _, p = A.transition_stats (A.signal r y) `Rise in
  let er, _ = Cell_library.rise_fall_of lib Gate_kind.Nand ~fanin:2 in
  close "rise probability one" 1.0 p ~tol:1e-12;
  close "spsta rise arrival" (2.0 +. er) mu ~tol:1e-9

let test_ssta_rf () =
  let c = nand_gate () in
  let lib = Cell_library.default in
  let r = Spsta_ssta.Ssta.analyze ~delay_rf:(Cell_library.gate_delays lib c) c in
  let y = Circuit.find_exn c "y" in
  let a = Spsta_ssta.Ssta.arrival r y in
  let er, ef = Cell_library.rise_fall_of lib Gate_kind.Nand ~fanin:2 in
  (* NAND rise comes from the MIN of input falls (mean -1/sqrt(pi)) *)
  close "ssta rise mean" (-.(1.0 /. sqrt Float.pi) +. er)
    (Spsta_dist.Normal.mean a.Spsta_ssta.Ssta.rise) ~tol:1e-6;
  close "ssta fall mean" ((1.0 /. sqrt Float.pi) +. ef)
    (Spsta_dist.Normal.mean a.Spsta_ssta.Ssta.fall) ~tol:1e-6

(* end-to-end: SPSTA with a full cell library still tracks MC *)
let test_library_spsta_vs_mc () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let lib = Cell_library.default in
  let delay_rf g = Cell_library.gate_delays lib c g in
  let spec _ = Input_spec.case_i in
  let spsta = A.analyze ~delay_rf c ~spec in
  (* Monte Carlo with the same library *)
  let rng = Spsta_util.Rng.create ~seed:21 in
  let acc_rise = Spsta_util.Stats.acc_create () in
  let g17 = Circuit.find_exn c "G17" in
  let runs = 30_000 in
  let rises = ref 0 in
  for _ = 1 to runs do
    let r =
      Spsta_sim.Logic_sim.run ~delay_rf c
        ~source_values:(fun s -> Input_spec.sample rng (spec s))
    in
    if Value4.equal r.Spsta_sim.Logic_sim.values.(g17) Value4.Rising then begin
      incr rises;
      Spsta_util.Stats.acc_add acc_rise r.Spsta_sim.Logic_sim.times.(g17)
    end
  done;
  let mu, sigma, p = A.transition_stats (A.signal spsta g17) `Rise in
  close "library P vs MC" (float_of_int !rises /. float_of_int runs) p ~tol:0.03;
  close "library mean vs MC" (Spsta_util.Stats.acc_mean acc_rise) mu ~tol:0.15;
  close "library sigma vs MC" (Spsta_util.Stats.acc_stddev acc_rise) sigma ~tol:0.15

let suite =
  [
    Alcotest.test_case "unit delay library" `Quick test_unit_delay;
    Alcotest.test_case "fan-in scaling" `Quick test_fanin_scaling;
    Alcotest.test_case "rise/fall skew" `Quick test_rise_fall_skew;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "gate delay accessor" `Quick test_gate_delays_accessor;
    Alcotest.test_case "simulator direction delays" `Quick test_sim_uses_direction_delay;
    Alcotest.test_case "SPSTA direction delays" `Quick test_spsta_uses_direction_delay;
    Alcotest.test_case "SSTA rise/fall delays" `Quick test_ssta_rf;
    Alcotest.test_case "library SPSTA vs MC on s27" `Slow test_library_spsta_vs_mc;
  ]
