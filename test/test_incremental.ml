(* Incremental re-analysis: Analyzer.update must match a full analyze. *)

module Circuit = Spsta_netlist.Circuit
module Input_spec = Spsta_sim.Input_spec
module Four_value = Spsta_core.Four_value
module A = Spsta_core.Analyzer.Moments

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let signals_equal c name full incremental =
  Array.iter
    (fun g ->
      let s_full = A.signal full g and s_inc = A.signal incremental g in
      let label = name ^ "/" ^ Circuit.net_name c g in
      close (label ^ " p_rise") s_full.A.probs.Four_value.p_rise
        s_inc.A.probs.Four_value.p_rise ~tol:1e-12;
      let fm, fs, _ = A.transition_stats s_full `Rise in
      let im, is_, _ = A.transition_stats s_inc `Rise in
      close (label ^ " rise mean") fm im ~tol:1e-12;
      close (label ^ " rise sigma") fs is_ ~tol:1e-12)
    (Circuit.topo_gates c)

(* change one primary input's statistics and update only its cone *)
let test_update_matches_full_source_change () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let base_spec _ = Input_spec.case_i in
  let base = A.analyze c ~spec:base_spec in
  let changed_source = List.hd (Circuit.primary_inputs c) in
  let new_spec s = if s = changed_source then Input_spec.case_ii else Input_spec.case_i in
  let full = A.analyze c ~spec:new_spec in
  let incremental = A.update base ~changed:[ changed_source ] ~spec:new_spec in
  signals_equal c "source change" full incremental

let test_update_matches_full_multi_change () =
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let base_spec _ = Input_spec.case_ii in
  let base = A.analyze c ~spec:base_spec in
  let sources = Circuit.sources c in
  let changed = List.filteri (fun i _ -> i mod 3 = 0) sources in
  let new_spec s = if List.mem s changed then Input_spec.case_i else Input_spec.case_ii in
  let full = A.analyze c ~spec:new_spec in
  let incremental = A.update base ~changed ~spec:new_spec in
  signals_equal c "multi change" full incremental

let test_update_is_pure () =
  (* updating must not mutate the original result *)
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Input_spec.case_i in
  let base = A.analyze c ~spec in
  let g17 = Circuit.find_exn c "G17" in
  let before, _, _ = A.transition_stats (A.signal base g17) `Rise in
  let changed_source = List.hd (Circuit.sources c) in
  let new_spec s = if s = changed_source then Input_spec.case_ii else Input_spec.case_i in
  let _ = A.update base ~changed:[ changed_source ] ~spec:new_spec in
  let after, _, _ = A.transition_stats (A.signal base g17) `Rise in
  close "original untouched" before after ~tol:0.0

let test_untouched_cone_shared () =
  (* nets outside the cone must be byte-identical (physically shared) *)
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let spec _ = Input_spec.case_i in
  let base = A.analyze c ~spec in
  let changed_source = List.hd (Circuit.sources c) in
  let incremental = A.update base ~changed:[ changed_source ] ~spec in
  (* find a gate not reachable from the changed source *)
  let dirty = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem dirty id) then begin
      Hashtbl.replace dirty id ();
      Array.iter mark (Circuit.fanout c id)
    end
  in
  mark changed_source;
  let clean_gates =
    Array.to_list (Circuit.topo_gates c) |> List.filter (fun g -> not (Hashtbl.mem dirty g))
  in
  Alcotest.(check bool) "some clean gates exist" true (clean_gates <> []);
  (* the flat kernel copies the result into a fresh arena: clean nets
     are bitwise unchanged *)
  let bits x = Int64.bits_of_float x in
  let top_bits m =
    List.map
      (fun (c : Spsta_dist.Mixture.component) ->
        ( bits c.Spsta_dist.Mixture.weight,
          bits (Spsta_dist.Normal.mean c.Spsta_dist.Mixture.dist),
          bits (Spsta_dist.Normal.stddev c.Spsta_dist.Mixture.dist) ))
      (Spsta_dist.Mixture.components m)
  in
  let signal_bits (s : A.signal) =
    ( List.map bits
        Four_value.[ s.A.probs.p_zero; s.A.probs.p_one; s.A.probs.p_rise; s.A.probs.p_fall ],
      top_bits s.A.rise,
      top_bits s.A.fall )
  in
  List.iter
    (fun g ->
      Alcotest.(check bool) "clean gate bitwise unchanged" true
        (signal_bits (A.signal base g) = signal_bits (A.signal incremental g)))
    clean_gates;
  (* the record engine shares clean states physically *)
  let module R = Spsta_core.Analyzer.Make (Spsta_core.Top.Moment_backend) in
  let base = R.analyze c ~spec in
  let incremental = R.update base ~changed:[ changed_source ] ~spec in
  List.iter
    (fun g ->
      Alcotest.(check bool) "clean gate physically shared (record engine)" true
        (R.signal base g == R.signal incremental g))
    clean_gates

let test_noop_update () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec _ = Input_spec.case_i in
  let base = A.analyze c ~spec in
  let incremental = A.update base ~changed:[] ~spec in
  signals_equal c "noop" base incremental

let suite =
  [
    Alcotest.test_case "source change" `Quick test_update_matches_full_source_change;
    Alcotest.test_case "multiple changes" `Quick test_update_matches_full_multi_change;
    Alcotest.test_case "update is pure" `Quick test_update_is_pure;
    Alcotest.test_case "clean cone shared" `Quick test_untouched_cone_shared;
    Alcotest.test_case "no-op update" `Quick test_noop_update;
  ]
