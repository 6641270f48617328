module Monte_carlo = Spsta_sim.Monte_carlo
module Ssta = Spsta_ssta.Ssta
module Analyzer = Spsta_core.Analyzer
module Table = Spsta_util.Table

type row = {
  circuit_name : string;
  spsta_seconds : float;
  ssta_seconds : float;
  mc_seconds : float;
  mc_runs : int;
}

let time f =
  let start = Sys.time () in
  let result = f () in
  (result, Sys.time () -. start)

let run_circuit ?(runs = 10_000) ?(seed = 42) ?mc_domains circuit ~case =
  let spec = Workloads.spec_fn case in
  let _, spsta_seconds = time (fun () -> Analyzer.Moments.analyze circuit ~spec) in
  let _, ssta_seconds = time (fun () -> Ssta.analyze circuit) in
  let _, mc_seconds =
    time (fun () ->
        Monte_carlo.simulate ~runs ~seed ?domains:mc_domains circuit ~spec)
  in
  {
    circuit_name = Spsta_netlist.Circuit.name circuit;
    spsta_seconds;
    ssta_seconds;
    mc_seconds;
    mc_runs = runs;
  }

let run_suite ?runs ?seed ?mc_domains ~case () =
  List.map
    (fun name -> run_circuit ?runs ?seed ?mc_domains (Benchmarks.load name) ~case)
    Benchmarks.evaluated_names

let render rows =
  let table = Table.create ~headers:[ "test"; "SPSTA (s)"; "SSTA (s)"; "MC (s)"; "MC/SPSTA" ] in
  let add r =
    let ratio = if r.spsta_seconds > 0.0 then r.mc_seconds /. r.spsta_seconds else infinity in
    Table.add_row table
      [
        r.circuit_name;
        Printf.sprintf "%.4f" r.spsta_seconds;
        Printf.sprintf "%.4f" r.ssta_seconds;
        Printf.sprintf "%.4f" r.mc_seconds;
        Printf.sprintf "%.1fx" ratio;
      ]
  in
  List.iter add rows;
  Printf.sprintf "Table 3: CPU runtime (seconds), %d-run Monte Carlo\n%s"
    (match rows with r :: _ -> r.mc_runs | [] -> 0)
    (Table.render table)
