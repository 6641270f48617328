module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Normal = Spsta_dist.Normal
module Clark = Spsta_dist.Clark
module Monte_carlo = Spsta_sim.Monte_carlo
module Packed_sim = Spsta_sim.Packed_sim
module Sta = Spsta_ssta.Sta
module Ssta = Spsta_ssta.Ssta
module Histogram = Spsta_util.Histogram

type result = {
  circuit_name : string;
  mc_delays : float array;
  sta_earliest : float;
  sta_latest : float;
  ssta_best : Normal.t;
  ssta_worst : Normal.t;
  bounds_99 : float * float;
}

(* per-run chip delay: the latest transition arrival over all endpoints;
   runs whose endpoints are all steady contribute nothing.  Trial [i]
   always draws from [Rng.stream ~seed i] and the samples are collected
   in ascending trial order. *)
let chip_delays ~runs ~seed circuit ~spec =
  let endpoints = Circuit.endpoints circuit in
  let delays = ref [] in
  let sim = Packed_sim.create circuit in
  Monte_carlo.iter_blocks ~runs ~seed sim ~spec (fun k ->
      for l = 0 to k - 1 do
        let latest =
          List.fold_left
            (fun acc e ->
              if Value4.is_transition (Packed_sim.lane_value sim e ~lane:l) then
                Float.max acc (Packed_sim.lane_time sim e ~lane:l)
              else acc)
            neg_infinity endpoints
        in
        if latest > neg_infinity then delays := latest :: !delays
      done);
  let a = Array.of_list !delays in
  (* the list was built by prepending; restore ascending trial order *)
  let n = Array.length a in
  Array.init n (fun i -> a.(n - 1 - i))

let run ?(runs = 10_000) ?(seed = 42) ?circuit ~case () =
  let circuit = match circuit with Some c -> c | None -> Benchmarks.load "s344" in
  let spec = Workloads.spec_fn case in
  let mc_delays = chip_delays ~runs ~seed circuit ~spec in
  (* STA with +-3 sigma input arrival bounds (the paper's note that STA
     bounds may represent the +-3 sigma points) *)
  let sta = Sta.analyze ~input_bounds:{ Sta.earliest = -3.0; latest = 3.0 } circuit in
  let endpoints = Circuit.endpoints circuit in
  let sta_earliest =
    List.fold_left (fun acc e -> Float.min acc (Sta.bounds sta e).Sta.earliest) infinity endpoints
  in
  let sta_latest = Sta.max_latest sta in
  let ssta = Ssta.analyze circuit in
  let endpoint_arrivals =
    List.concat_map
      (fun e ->
        let a = Ssta.arrival ssta e in
        [ a.Ssta.rise; a.Ssta.fall ])
      endpoints
  in
  let bounds = Spsta_ssta.Bounds_ssta.analyze circuit in
  {
    circuit_name = Circuit.name circuit;
    mc_delays;
    sta_earliest;
    sta_latest;
    ssta_best = Clark.min_normal_many endpoint_arrivals;
    ssta_worst = Clark.max_normal_many endpoint_arrivals;
    bounds_99 =
      Spsta_ssta.Bounds_ssta.quantile_bounds (Spsta_ssta.Bounds_ssta.chip_band bounds) 0.99;
  }

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Fig 1 (%s): chip timing distribution vs STA bounds vs SSTA best/worst\n\
        STA bounds: [%.2f, %.2f]\n\
        SSTA best case:  N(%.2f, %.2f)\n\
        SSTA worst case: N(%.2f, %.2f)\n\
        MC chip delays: %d samples, mean %.2f, stddev %.2f\n"
       r.circuit_name r.sta_earliest r.sta_latest
       (Normal.mean r.ssta_best) (Normal.stddev r.ssta_best)
       (Normal.mean r.ssta_worst) (Normal.stddev r.ssta_worst)
       (Array.length r.mc_delays)
       (Spsta_util.Stats.mean r.mc_delays)
       (Spsta_util.Stats.stddev r.mc_delays));
  let optimistic, pessimistic = r.bounds_99 in
  Buffer.add_string buf
    (Printf.sprintf
       "Frechet 99%%-quantile band of the STA-model arrival (ref [1]): [%.2f, %.2f]\n"
       optimistic pessimistic);
  if Array.length r.mc_delays > 0 then begin
    Buffer.add_string buf "MC chip-delay histogram:\n";
    Buffer.add_string buf (Histogram.render (Histogram.of_samples ~bins:30 r.mc_delays))
  end;
  Buffer.contents buf
