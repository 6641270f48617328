module Circuit = Spsta_netlist.Circuit
module Stats = Spsta_util.Stats
module Monte_carlo = Spsta_sim.Monte_carlo
module Analyzer = Spsta_core.Analyzer
module Four_value = Spsta_core.Four_value

type errors = {
  spsta_mu : float;
  spsta_sigma : float;
  ssta_mu : float;
  ssta_sigma : float;
  rows_used : int;
}

type t = {
  arrival_errors : errors;
  signal_prob_error : float;
  signal_prob_nets : int;
}

let mean_of = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let of_rows rows =
  let usable = List.filter (fun (r : Table2.row) -> r.Table2.mc.Table2.prob >= 0.005) rows in
  (* mean relative error of one method's [stat] against Monte Carlo's *)
  let error meth stat =
    mean_of
      (List.map
         (fun (r : Table2.row) -> Stats.relative_error ~reference:(stat r.Table2.mc) (stat (meth r)))
         usable)
  in
  let spsta (r : Table2.row) = r.Table2.spsta and ssta (r : Table2.row) = r.Table2.ssta in
  let mu (s : Table2.method_stats) = s.Table2.mu
  and sigma (s : Table2.method_stats) = s.Table2.sigma in
  { spsta_mu = error spsta mu; spsta_sigma = error spsta sigma; ssta_mu = error ssta mu;
    ssta_sigma = error ssta sigma; rows_used = List.length usable }

(* mean relative signal-probability error of SPSTA vs MC, on the runs
   of one Table 2 circuit, over all non-source nets whose MC signal
   probability is bounded away from 0 *)
let signal_prob_errors (m : Table2.measured) =
  let errors = ref [] in
  Array.iter
    (fun g ->
      let reference = Monte_carlo.signal_probability (Monte_carlo.stats m.Table2.mc_result g) in
      if reference >= 0.01 then begin
        let estimate =
          Four_value.signal_probability
            (Analyzer.Moments.signal m.Table2.spsta_result g).Analyzer.Moments.probs
        in
        errors := Stats.relative_error ~reference estimate :: !errors
      end)
    (Circuit.topo_gates m.Table2.circuit);
  !errors

let run ?(runs = 10_000) ?(seed = 42) ?mc_domains () =
  let case_i = Table2.run_suite ~runs ~seed ?mc_domains ~case:Workloads.Case_i () in
  let rows_ii =
    Table2.suite_rows (Table2.run_suite ~runs ~seed ?mc_domains ~case:Workloads.Case_ii ())
  in
  let arrival_errors = of_rows (Table2.suite_rows case_i @ rows_ii) in
  let sp_errors = List.concat_map signal_prob_errors case_i in
  {
    arrival_errors;
    signal_prob_error = mean_of sp_errors;
    signal_prob_nets = List.length sp_errors;
  }

let render t =
  Printf.sprintf
    "Summary (paper section 4 headline, reproduced):\n\
    \  SPSTA arrival mean error vs MC:   %5.1f%%   (paper:  6.2%%)\n\
    \  SPSTA arrival stddev error vs MC: %5.1f%%   (paper: 18.6%%)\n\
    \  SSTA  arrival mean error vs MC:   %5.1f%%   (paper: 13.4%%)\n\
    \  SSTA  arrival stddev error vs MC: %5.1f%%   (paper: 64.3%%)\n\
    \  rows used: %d (MC transition probability >= 0.5%%)\n\
    \  SPSTA signal probability error vs MC: %5.1f%% over %d nets (paper: 14.28%%)\n"
    (100.0 *. t.arrival_errors.spsta_mu)
    (100.0 *. t.arrival_errors.spsta_sigma)
    (100.0 *. t.arrival_errors.ssta_mu)
    (100.0 *. t.arrival_errors.ssta_sigma)
    t.arrival_errors.rows_used
    (100.0 *. t.signal_prob_error)
    t.signal_prob_nets
