module Rc_tree = Spsta_interconnect.Rc_tree
module Wire_model = Spsta_interconnect.Wire_model
module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let test_single_segment () =
  (* driver R=2 into one segment R=3, C at far end 5 plus root cap 1:
     elmore(sink) = 2*(1+5) + 3*5 = 27 *)
  let t = Rc_tree.create ~driver_resistance:2.0 ~root_cap:1.0 () in
  let sink = Rc_tree.add_child t (Rc_tree.root t) ~resistance:3.0 ~capacitance:5.0 in
  close "total capacitance" 6.0 (Rc_tree.total_capacitance t);
  close "elmore at sink" 27.0 (Rc_tree.elmore_delay t sink);
  close "elmore at root" 12.0 (Rc_tree.elmore_delay t (Rc_tree.root t));
  close "worst" 27.0 (Rc_tree.worst_elmore t)

let test_chain_closed_form () =
  (* uniform chain of n stages, no driver R, no sink cap:
     elmore(end) = r c (n + (n-1) + ... + 1) = r c n (n+1) / 2 *)
  let n = 5 in
  let t = Rc_tree.chain ~stages:n ~segment_r:2.0 ~segment_c:3.0 ~sink_cap:0.0 () in
  close "chain elmore" (2.0 *. 3.0 *. float_of_int (n * (n + 1) / 2)) (Rc_tree.worst_elmore t);
  Alcotest.(check int) "node count" (n + 1) (Rc_tree.node_count t)

let test_star_symmetry () =
  let t =
    Rc_tree.balanced ~driver_resistance:1.0 ~fanout:4 ~segment_r:0.5 ~segment_c:0.2 ~sink_cap:0.3 ()
  in
  (* every sink identical: elmore = Rd * Ctotal + r * (c + csink) *)
  let expected = (1.0 *. (4.0 *. 0.5)) +. (0.5 *. 0.5) in
  close "star sink delay" expected (Rc_tree.worst_elmore t);
  close "star total cap" 2.0 (Rc_tree.total_capacitance t)

let test_validation () =
  let t = Rc_tree.create ~root_cap:0.0 () in
  Alcotest.check_raises "negative R" (Invalid_argument "Rc_tree.add_child: negative R or C")
    (fun () -> ignore (Rc_tree.add_child t (Rc_tree.root t) ~resistance:(-1.0) ~capacitance:0.0));
  Alcotest.check_raises "negative driver R"
    (Invalid_argument "Rc_tree.create: negative driver resistance") (fun () ->
      ignore (Rc_tree.create ~driver_resistance:(-1.0) ~root_cap:0.0 ()))

let fanout_circuit k =
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"n0" Gate_kind.Buf [ "a" ];
  for i = 1 to k do
    Circuit.Builder.add_gate b ~output:(Printf.sprintf "s%d" i) Gate_kind.Not [ "n0" ];
    Circuit.Builder.add_output b (Printf.sprintf "s%d" i)
  done;
  Circuit.Builder.finalize b

let test_wire_model_fanout_scaling () =
  let c1 = fanout_circuit 1 and c4 = fanout_circuit 4 in
  let w1 = Wire_model.build c1 and w4 = Wire_model.build c4 in
  let d1 = Wire_model.net_delay w1 (Circuit.find_exn c1 "n0") in
  let d4 = Wire_model.net_delay w4 (Circuit.find_exn c4 "n0") in
  Alcotest.(check bool) "fanout increases net delay" true (d4 > d1);
  (* loadless outputs have no wire delay *)
  close "loadless sink" 0.0 (Wire_model.net_delay w4 (Circuit.find_exn c4 "s1"))

let test_stage_delay () =
  let c = fanout_circuit 2 in
  let w = Wire_model.build c in
  let n0 = Circuit.find_exn c "n0" in
  close "stage = gate + wire"
    (Wire_model.default_params.Wire_model.gate_delay +. Wire_model.net_delay w n0)
    (Wire_model.stage_delay w n0)

let test_placement_distance_matters () =
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let model = Spsta_variation.Param_model.create ~grid:4 () in
  let p = Spsta_variation.Param_model.place ~seed:5 model c in
  let near = Wire_model.build c in
  let far = Wire_model.build ~placement:(p, 4) c in
  (* with placement, total wiring cannot be smaller than the unit model *)
  Alcotest.(check bool) "placement adds wire" true
    (Wire_model.total_wire_capacitance far >= Wire_model.total_wire_capacitance near)

let test_timing_engines_consume_wire_delays () =
  (* loaded delays shift all three engines consistently on a chain *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.Buf [ "a" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Buf [ "n1" ];
  Circuit.Builder.add_output b "n2";
  let c = Circuit.Builder.finalize b in
  let w = Wire_model.build c in
  let delay_of = Wire_model.stage_delay w in
  let out = Circuit.find_exn c "n2" in
  let expected =
    delay_of (Circuit.find_exn c "n1") +. delay_of out
  in
  (* logic sim *)
  let sim =
    Spsta_sim.Logic_sim.run ~delay_rf:(fun g -> (delay_of g, delay_of g)) c
      ~source_values:(fun _ -> (Spsta_logic.Value4.Rising, 0.0))
  in
  close "sim loaded arrival" expected sim.Spsta_sim.Logic_sim.times.(out);
  (* spsta *)
  let spec _ =
    Spsta_sim.Input_spec.make
      ~rise_arrival:(Spsta_dist.Normal.make ~mu:0.0 ~sigma:0.0)
      ~p_zero:0.0 ~p_one:0.0 ~p_rise:1.0 ~p_fall:0.0 ()
  in
  let spsta =
    Spsta_core.Analyzer.Moments.analyze ~delay_rf:(fun g -> (delay_of g, delay_of g)) c ~spec
  in
  let mu, _, _ =
    Spsta_core.Analyzer.Moments.transition_stats
      (Spsta_core.Analyzer.Moments.signal spsta out) `Rise
  in
  close "spsta loaded arrival" expected mu ~tol:1e-9;
  (* ssta (variational with zero sigma) *)
  let ssta =
    Spsta_ssta.Ssta.analyze_variational
      ~gate_delay:(fun g -> Spsta_dist.Normal.make ~mu:(delay_of g) ~sigma:0.0)
      ~input_arrival:
        { Spsta_ssta.Ssta.rise = Spsta_dist.Normal.make ~mu:0.0 ~sigma:0.0;
          fall = Spsta_dist.Normal.make ~mu:0.0 ~sigma:0.0 }
      c
  in
  close "ssta loaded arrival" expected
    (Spsta_dist.Normal.mean (Spsta_ssta.Ssta.arrival ssta out).Spsta_ssta.Ssta.rise)

(* ---------- delay bits pinned ---------- *)

(* Every engine that takes a per-gate delay, run on s344 under the
   wire-load stage delays and under the characterised cell library's
   (rise, fall) delays; each endpoint value is pinned as a hex float
   (exact bits) against test/golden/delays.tsv, one "label<TAB>value"
   line per value, so a change to how a delay reaches an analysis
   cannot move a result.  The unit-delay Monte Carlo rows pin the
   per-gate delay_sigma path of both engines. *)
let delay_pin_rows () =
  let module Ssta = Spsta_ssta.Ssta in
  let module Moments = Spsta_core.Analyzer.Moments in
  let module Mc = Spsta_sim.Monte_carlo in
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let spec = Spsta_experiments.Workloads.spec_fn Spsta_experiments.Workloads.Case_i in
  let endpoints = Circuit.endpoints c in
  let wire = Wire_model.stage_delay (Wire_model.build c) in
  let wire_rf g = (wire g, wire g) in
  let cell_rf = Spsta_netlist.Cell_library.gate_delays Spsta_netlist.Cell_library.default c in
  let rows = ref [] in
  let row label v = rows := (label, Printf.sprintf "%h" v) :: !rows in
  let add label e values =
    List.iter (fun (what, v) -> row (Printf.sprintf "%s %s %s" label (Circuit.net_name c e) what) v)
      values
  in
  let spsta label signal transition_stats probs =
    List.iter
      (fun e ->
        let s = signal e in
        let rise_mu, rise_sigma, _ = transition_stats s `Rise in
        let fall_mu, fall_sigma, _ = transition_stats s `Fall in
        let p = probs s in
        add label e
          [ ("p0", p.Spsta_core.Four_value.p_zero); ("p1", p.p_one); ("pr", p.p_rise);
            ("pf", p.p_fall); ("rise_mu", rise_mu); ("rise_sigma", rise_sigma);
            ("fall_mu", fall_mu); ("fall_sigma", fall_sigma) ])
      endpoints
  in
  let moments label r =
    spsta label (Moments.signal r) Moments.transition_stats (fun s -> s.Moments.probs)
  in
  moments "moments wire" (Moments.analyze ~delay_rf:wire_rf c ~spec);
  moments "moments cell" (Moments.analyze ~delay_rf:cell_rf c ~spec);
  let module B =
    (val Spsta_core.Top.discrete_backend ~dt:0.05 ()
        : Spsta_core.Top.BACKEND with type top = Spsta_dist.Discrete.t)
  in
  let module Grid = Spsta_core.Analyzer.Make (B) in
  let grid label r = spsta label (Grid.signal r) Grid.transition_stats (fun s -> s.Grid.probs) in
  grid "grid wire" (Grid.analyze ~delay_rf:wire_rf c ~spec);
  grid "grid cell" (Grid.analyze ~delay_rf:cell_rf c ~spec);
  let source_values =
    let rng = Spsta_util.Rng.create ~seed:11 in
    let drawn = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.replace drawn s (Spsta_sim.Input_spec.sample rng (spec s)))
      (Circuit.sources c);
    Hashtbl.find drawn
  in
  let sim label (r : Spsta_sim.Logic_sim.result) =
    List.iter (fun e -> add label e [ ("time", r.Spsta_sim.Logic_sim.times.(e)) ]) endpoints
  in
  sim "sim wire" (Spsta_sim.Logic_sim.run ~delay_rf:wire_rf c ~source_values);
  sim "sim cell" (Spsta_sim.Logic_sim.run ~delay_rf:cell_rf c ~source_values);
  let chip = Spsta_core.Chip_delay.compute ~delay_rf:wire_rf c ~spec in
  row "chip wire p_idle" (Spsta_core.Chip_delay.p_idle chip);
  row "chip wire mean" (Spsta_core.Chip_delay.mean chip);
  row "chip wire stddev" (Spsta_core.Chip_delay.stddev chip);
  List.iter (fun (e, p) -> add "chip wire" e [ ("crit", p) ])
    (Spsta_core.Chip_delay.endpoint_criticality chip);
  (* a full SSTA sweep, then one in-place update after half the sources
     arrive later *)
  let late = List.filteri (fun i _ -> i mod 2 = 0) (Circuit.sources c) in
  let input_arrival_of s =
    let n = if List.mem s late then Spsta_dist.Normal.make ~mu:0.5 ~sigma:1.2 else Spsta_dist.Normal.standard in
    { Ssta.rise = n; fall = n }
  in
  let ssta label r =
    List.iter
      (fun e ->
        let a = Ssta.arrival r e in
        add label e
          [ ("rise_mu", Spsta_dist.Normal.mean a.Ssta.rise);
            ("rise_sigma", Spsta_dist.Normal.stddev a.Ssta.rise);
            ("fall_mu", Spsta_dist.Normal.mean a.Ssta.fall);
            ("fall_sigma", Spsta_dist.Normal.stddev a.Ssta.fall) ])
      endpoints
  in
  List.iter
    (fun (label, delay_rf) ->
      let r = Ssta.analyze ?delay_rf c in
      Ssta.update ?delay_rf ~input_arrival_of r ~changed:late;
      ssta label r)
    [ ("ssta unit", None); ("ssta wire", Some wire_rf); ("ssta cell", Some cell_rf) ];
  List.iter
    (fun (label, engine) ->
      let r = Mc.simulate ~delay_sigma:0.1 ~runs:200 ~engine ~seed:7 c ~spec in
      List.iter
        (fun e ->
          let s = Mc.stats r e in
          add label e
            [ ("pr", Mc.p_rise s); ("pf", Mc.p_fall s);
              ("rise_mu", Spsta_util.Stats.acc_mean s.Mc.rise_times);
              ("rise_sigma", Spsta_util.Stats.acc_stddev s.Mc.rise_times);
              ("fall_mu", Spsta_util.Stats.acc_mean s.Mc.fall_times);
              ("fall_sigma", Spsta_util.Stats.acc_stddev s.Mc.fall_times) ])
        endpoints)
    [ ("mc scalar", `Scalar); ("mc packed", `Packed) ];
  List.rev !rows

let test_delay_bits_pinned () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "golden/delays.tsv" in
  let expected =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let tab = String.index l '\t' in
           (String.sub l 0 tab, String.sub l (tab + 1) (String.length l - tab - 1)))
  in
  let rows = delay_pin_rows () in
  Alcotest.(check (list string)) "labels" (List.map fst expected) (List.map fst rows);
  List.iter2 (fun (label, bits) (_, v) -> Alcotest.(check string) label bits v) expected rows

let suite =
  [
    Alcotest.test_case "single segment elmore" `Quick test_single_segment;
    Alcotest.test_case "chain closed form" `Quick test_chain_closed_form;
    Alcotest.test_case "star symmetry" `Quick test_star_symmetry;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "fanout scaling" `Quick test_wire_model_fanout_scaling;
    Alcotest.test_case "stage delay" `Quick test_stage_delay;
    Alcotest.test_case "placement-aware wiring" `Quick test_placement_distance_matters;
    Alcotest.test_case "engines consume wire delays" `Quick test_timing_engines_consume_wire_delays;
    Alcotest.test_case "delay bits pinned" `Quick test_delay_bits_pinned;
  ]
