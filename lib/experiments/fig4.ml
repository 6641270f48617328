module Normal = Spsta_dist.Normal
module Discrete = Spsta_dist.Discrete
module Gate_kind = Spsta_logic.Gate_kind
module Analyzer = Spsta_core.Analyzer
module Four_value = Spsta_core.Four_value
module Top = Spsta_core.Top

type series_stats = {
  series : (float * float) list;
  mean : float;
  stddev : float;
  skewness : float;
}

type result = {
  max_result : series_stats;
  weighted_sum_result : series_stats;
  rise_probability : float;
}

let stats_of top =
  let w = Discrete.total top in
  {
    series = Discrete.density_series (if w > 0.0 then Discrete.scale top (1.0 /. w) else top);
    mean = Discrete.mean top;
    stddev = Discrete.stddev top;
    skewness = Discrete.skewness top;
  }

let run () =
  let dt = 0.02 and sigma1 = 1.0 and sigma2 = 0.5 in
  let module B = (val Top.discrete_backend ~dt () : Top.BACKEND with type top = Discrete.t) in
  let module A = Analyzer.Make (B) in
  (* 0.9 signal probability: steady one 80%, rising 10%, falling 10% *)
  let spec sigma =
    Spsta_sim.Input_spec.make
      ~rise_arrival:(Normal.make ~mu:5.0 ~sigma)
      ~fall_arrival:(Normal.make ~mu:5.0 ~sigma)
      ~p_zero:0.0 ~p_one:0.8 ~p_rise:0.1 ~p_fall:0.1 ()
  in
  let x1 = A.source_signal (spec sigma1) in
  let x2 = A.source_signal (spec sigma2) in
  let y = A.gate_output ~gate_delay:0.0 Gate_kind.And [ x1; x2 ] in
  let d1 = Discrete.of_normal ~dt ~mass:1.0 (Normal.make ~mu:5.0 ~sigma:sigma1) in
  let d2 = Discrete.of_normal ~dt ~mass:1.0 (Normal.make ~mu:5.0 ~sigma:sigma2) in
  {
    max_result = stats_of (Discrete.max_independent d1 d2);
    weighted_sum_result = stats_of y.A.rise;
    rise_probability = y.A.probs.Four_value.p_rise;
  }

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fig 4: AND gate, inputs at 0.9 signal probability, same mean, sigma 1.0 vs 0.5\n\
        MAX result:          mean %.3f stddev %.3f skewness %+.3f\n\
        WEIGHTED SUM result: mean %.3f stddev %.3f skewness %+.3f (P_rise = %.3f)\n"
       r.max_result.mean r.max_result.stddev r.max_result.skewness
       r.weighted_sum_result.mean r.weighted_sum_result.stddev r.weighted_sum_result.skewness
       r.rise_probability);
  let sample label s =
    Buffer.add_string buf (label ^ " density (every 25th point):\n");
    List.iteri
      (fun i (x, d) ->
        if i mod 25 = 0 && d > 1e-4 then
          Buffer.add_string buf (Printf.sprintf "  %7.2f  %.5f\n" x d))
      s.series
  in
  sample "MAX" r.max_result;
  sample "WEIGHTED SUM" r.weighted_sum_result;
  Buffer.contents buf
