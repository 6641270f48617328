module Circuit = Spsta_netlist.Circuit
module Discrete = Spsta_dist.Discrete

type t = {
  p_idle : float;
  dist : Discrete.t;
  criticality : (Circuit.id * float) list;
}

let compute ?(dt = 0.05) ?delay_rf circuit ~spec =
  let module B = (val Top.discrete_backend ~dt () : Top.BACKEND with type top = Discrete.t) in
  let module A = Analyzer.Make (B) in
  let result = A.analyze ?delay_rf circuit ~spec in
  let endpoints = Circuit.endpoints circuit in
  (* per endpoint: combined (rise + fall) transition mass over time *)
  let tops =
    List.map
      (fun e ->
        let s = A.signal result e in
        (e, Discrete.add s.A.rise s.A.fall))
      endpoints
  in
  let p_idle =
    List.fold_left (fun acc (_, top) -> acc *. (1.0 -. Discrete.total top)) 1.0 tops
  in
  (* common grid covering every endpoint's support *)
  let series = List.map (fun (e, top) -> (e, Discrete.series top)) tops in
  let times =
    List.concat_map (fun (_, s) -> List.map fst s) series |> List.sort_uniq compare
  in
  match times with
  | [] ->
    { p_idle = 1.0; dist = Discrete.zero ~dt; criticality = List.map (fun (e, _) -> (e, 0.0)) tops }
  | _ ->
    (* settled-by-t cdf per endpoint, evaluated on the merged grid *)
    let settled_by (_, top) t = 1.0 -. (Discrete.total top -. Discrete.cdf top t) in
    let chip_cdf t = List.fold_left (fun acc et -> acc *. settled_by et t) 1.0 tops in
    let mass_points =
      let previous = ref p_idle in
      List.map
        (fun t ->
          let f = chip_cdf t in
          let m = Float.max (f -. !previous) 0.0 in
          previous := f;
          (t, m))
        times
    in
    let dist = Discrete.of_points ~dt mass_points in
    (* criticality: P(endpoint e transitions at t and everyone else has
       settled by t); grid approximation, ties split arbitrarily *)
    let raw_criticality =
      List.map
        (fun (e, top) ->
          let others = List.filter (fun (e', _) -> e' <> e) tops in
          let total =
            List.fold_left
              (fun acc (t, m) ->
                if m <= 0.0 then acc
                else acc +. (m *. List.fold_left (fun p et -> p *. settled_by et t) 1.0 others))
              0.0 (Discrete.series top)
          in
          (e, total))
        tops
    in
    let norm = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 raw_criticality in
    let criticality =
      if norm <= 0.0 then raw_criticality
      else List.map (fun (e, c) -> (e, c /. norm)) raw_criticality
    in
    { p_idle; dist; criticality = List.sort (fun (_, a) (_, b) -> compare b a) criticality }

let p_idle t = t.p_idle
let distribution t = t.dist
let mean t = Discrete.mean t.dist
let stddev t = Discrete.stddev t.dist

let yield_at t threshold = t.p_idle +. Discrete.cdf t.dist threshold

let clock_for_yield t target =
  if not (target > 0.0 && target <= 1.0) then
    invalid_arg "Chip_delay.clock_for_yield: target outside (0,1]";
  if t.p_idle >= target then
    match Discrete.series t.dist with
    | (first, _) :: _ -> first
    | [] -> 0.0
  else begin
    let rec scan = function
      | [] -> invalid_arg "Chip_delay.clock_for_yield: target unreachable on grid"
      | (time, _) :: rest -> if yield_at t time >= target then time else scan rest
    in
    scan (Discrete.series t.dist)
  end

let endpoint_criticality t = t.criticality
