module Circuit = Spsta_netlist.Circuit
module Discrete = Spsta_dist.Discrete
module Analyzer = Spsta_core.Analyzer
module Monte_carlo = Spsta_sim.Monte_carlo
module Histogram = Spsta_util.Histogram

let csv_of_series ~header series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header ^ "\n");
  List.iter (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%.6f,%.8f\n" x y)) series;
  Buffer.contents buf

let top_series ?(dt = 0.05) circuit ~spec ~net =
  let module B = (val Spsta_core.Top.discrete_backend ~dt () : Spsta_core.Top.BACKEND
                    with type top = Discrete.t)
  in
  let module A = Analyzer.Make (B) in
  let r = A.analyze circuit ~spec in
  let s = A.signal r net in
  let rise = Discrete.density_series s.A.rise and fall = Discrete.density_series s.A.fall in
  let fall_at = Hashtbl.create 64 in
  List.iter (fun (t, d) -> Hashtbl.replace fall_at t d) fall;
  let times =
    List.sort_uniq compare (List.map fst rise @ List.map fst fall)
  in
  let rise_at = Hashtbl.create 64 in
  List.iter (fun (t, d) -> Hashtbl.replace rise_at t d) rise;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,rise_density,fall_density\n";
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%.8f,%.8f\n" t
           (Option.value ~default:0.0 (Hashtbl.find_opt rise_at t))
           (Option.value ~default:0.0 (Hashtbl.find_opt fall_at t))))
    times;
  Buffer.contents buf

(* rise-arrival samples at [net]; trial [i] draws from
   [Rng.stream ~seed i] *)
let mc_histogram ?(runs = 10_000) ?(seed = 42) ?(bins = 50) circuit ~spec ~net =
  let samples = ref [] in
  let sim = Spsta_sim.Packed_sim.create circuit in
  Monte_carlo.iter_blocks ~runs ~seed sim ~spec (fun k ->
      for l = 0 to k - 1 do
        if
          Spsta_logic.Value4.equal
            (Spsta_sim.Packed_sim.lane_value sim net ~lane:l)
            Spsta_logic.Value4.Rising
        then samples := Spsta_sim.Packed_sim.lane_time sim net ~lane:l :: !samples
      done);
  match !samples with
  | [] -> "time,rise_density\n"
  | samples ->
    let h = Histogram.of_samples ~bins (Array.of_list samples) in
    csv_of_series ~header:"time,rise_density" (Array.to_list (Histogram.densities h))

let chip_delay_distribution ?dt circuit ~spec =
  let r = Spsta_core.Chip_delay.compute ?dt circuit ~spec in
  csv_of_series ~header:"time,mass"
    (Discrete.series (Spsta_core.Chip_delay.distribution r))

let table2_csv rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "circuit,dir,endpoint,spsta_mu,spsta_sigma,spsta_p,ssta_mu,ssta_sigma,mc_mu,mc_sigma,mc_p\n";
  List.iter
    (fun (r : Table2.row) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n"
           r.Table2.circuit_name
           (match r.Table2.direction with `Rise -> "r" | `Fall -> "f")
           r.Table2.endpoint r.Table2.spsta.Table2.mu r.Table2.spsta.Table2.sigma
           r.Table2.spsta.Table2.prob r.Table2.ssta.Table2.mu r.Table2.ssta.Table2.sigma
           r.Table2.mc.Table2.mu r.Table2.mc.Table2.sigma r.Table2.mc.Table2.prob))
    rows;
  Buffer.contents buf

let write_file ~path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
