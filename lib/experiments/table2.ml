module Circuit = Spsta_netlist.Circuit
module Stats = Spsta_util.Stats
module Normal = Spsta_dist.Normal
module Monte_carlo = Spsta_sim.Monte_carlo
module Ssta = Spsta_ssta.Ssta
module Analyzer = Spsta_core.Analyzer
module Table = Spsta_util.Table

type method_stats = { mu : float; sigma : float; prob : float }

type row = {
  circuit_name : string;
  direction : [ `Rise | `Fall ];
  endpoint : string;
  spsta : method_stats;
  ssta : method_stats;
  mc : method_stats;
}

let mc_direction_stats (s : Monte_carlo.net_stats) direction =
  let acc, count =
    match direction with
    | `Rise -> (s.Monte_carlo.rise_times, s.Monte_carlo.count_rise)
    | `Fall -> (s.Monte_carlo.fall_times, s.Monte_carlo.count_fall)
  in
  {
    mu = Stats.acc_mean acc;
    sigma = Stats.acc_stddev acc;
    prob = float_of_int count /. float_of_int s.Monte_carlo.n_runs;
  }

(* critical endpoint as the Monte Carlo reference sees it: the endpoint
   with the largest mean arrival in the given direction, among endpoints
   that transitioned at least once; deepest endpoint as fallback *)
let critical_endpoint circuit (mc : Monte_carlo.result) direction =
  let endpoints = Circuit.endpoints circuit in
  let observed e =
    let s = Monte_carlo.stats mc e in
    match direction with
    | `Rise -> s.Monte_carlo.count_rise > 0
    | `Fall -> s.Monte_carlo.count_fall > 0
  in
  let mean e = (mc_direction_stats (Monte_carlo.stats mc e) direction).mu in
  match List.filter observed endpoints with
  | [] ->
    List.fold_left
      (fun best e -> if Circuit.level circuit e > Circuit.level circuit best then e else best)
      (List.hd endpoints) endpoints
  | e0 :: rest -> List.fold_left (fun best e -> if mean e > mean best then e else best) e0 rest

let run_circuit ?(runs = 10_000) ?(seed = 42) ?mc_domains circuit ~case =
  let spec = Workloads.spec_fn case in
  let mc = Monte_carlo.simulate ~runs ~seed ?domains:mc_domains circuit ~spec in
  let spsta = Analyzer.Moments.analyze circuit ~spec in
  let ssta = Ssta.analyze circuit in
  let row direction =
    let e = critical_endpoint circuit mc direction in
    let mc_stats = mc_direction_stats (Monte_carlo.stats mc e) direction in
    let s_mean, s_sigma, s_prob =
      Analyzer.Moments.transition_stats (Analyzer.Moments.signal spsta e) direction
    in
    let ssta_arrival = Ssta.arrival ssta e in
    let ssta_normal =
      match direction with
      | `Rise -> ssta_arrival.Ssta.rise
      | `Fall -> ssta_arrival.Ssta.fall
    in
    {
      circuit_name = Circuit.name circuit;
      direction;
      endpoint = Circuit.net_name circuit e;
      spsta = { mu = s_mean; sigma = s_sigma; prob = s_prob };
      ssta = { mu = Normal.mean ssta_normal; sigma = Normal.stddev ssta_normal; prob = nan };
      mc = mc_stats;
    }
  in
  [ row `Rise; row `Fall ]

let run_suite ?runs ?seed ?mc_domains ~case () =
  let circuits = List.map Benchmarks.load Benchmarks.evaluated_names in
  let per_circuit =
    List.map (fun c -> run_circuit ?runs ?seed ?mc_domains c ~case) circuits
  in
  let rises = List.concat_map (fun rows -> List.filter (fun r -> r.direction = `Rise) rows) per_circuit in
  let falls = List.concat_map (fun rows -> List.filter (fun r -> r.direction = `Fall) rows) per_circuit in
  rises @ falls

let render ~case rows =
  let table =
    Table.create
      ~headers:
        [ "test"; "dir"; "SPSTA mu"; "SPSTA sig"; "SPSTA P"; "SSTA mu"; "SSTA sig";
          "MC mu"; "MC sig"; "MC P" ]
  in
  let add_row r =
    Table.add_row table
      [
        r.circuit_name;
        (match r.direction with `Rise -> "r" | `Fall -> "f");
        Table.cell_float r.spsta.mu;
        Table.cell_float r.spsta.sigma;
        Table.cell_float r.spsta.prob;
        Table.cell_float r.ssta.mu;
        Table.cell_float r.ssta.sigma;
        Table.cell_float r.mc.mu;
        Table.cell_float r.mc.sigma;
        Table.cell_float r.mc.prob;
      ]
  in
  let rises = List.filter (fun r -> r.direction = `Rise) rows in
  let falls = List.filter (fun r -> r.direction = `Fall) rows in
  List.iter add_row rises;
  if rises <> [] && falls <> [] then Table.add_separator table;
  List.iter add_row falls;
  Printf.sprintf "Table 2 (case %s): critical-path transition statistics\n%s"
    (Workloads.case_name case) (Table.render table)
