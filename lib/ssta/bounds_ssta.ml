module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Normal = Spsta_dist.Normal

type band = { times : float array; lower : float array; upper : float array }

type result = { grid : float array; bands : (float array * float array) Propagate.result }

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

(* Sanitizer checker: both tabulated cdf bounds must be monotone
   probabilities and the Frechet band must not invert. *)
let band_check : (float array * float array) Propagate.Sanitize.check =
 fun _circuit _id (lower, upper) ->
  let open Spsta_lint.Invariant in
  match
    first (check_cdf ~what:"lower cdf bound" lower @ check_cdf ~what:"upper cdf bound" upper)
  with
  | Some _ as violation -> violation
  | None ->
    let n = min (Array.length lower) (Array.length upper) in
    let rec scan i =
      if i >= n then None
      else if lower.(i) > upper.(i) +. prob_tolerance then
        Some
          ( "inverted-interval",
            Printf.sprintf "cdf band inverted at grid index %d: lower %.17g > upper %.17g" i
              lower.(i) upper.(i) )
      else scan (i + 1)
    in
    scan 0

let analyze ?(gate_delay = 1.0) ?(dt = 0.1) ?(input_arrival = Normal.standard) ?check
    ?domains circuit =
  let depth = float_of_int (Circuit.depth circuit) in
  let horizon =
    (depth *. gate_delay) +. Normal.mean input_arrival +. (6.0 *. Normal.stddev input_arrival)
  in
  let lo = Normal.mean input_arrival -. (6.0 *. Normal.stddev input_arrival) in
  let steps = max 1 (int_of_float (Float.ceil ((horizon -. lo) /. dt))) in
  let grid = Array.init (steps + 1) (fun i -> lo +. (float_of_int i *. dt)) in
  let n_grid = Array.length grid in
  let shift_bins = max 0 (int_of_float (Float.round (gate_delay /. dt))) in
  let source_cdf = Array.map (fun t -> Normal.cdf input_arrival t) grid in
  (* shift a tabulated cdf right by the gate delay: F'(t) = F(t - d) *)
  let shift cdf =
    Array.init n_grid (fun i -> if i < shift_bins then 0.0 else cdf.(i - shift_bins))
  in
  (* Frechet combination of the operand cdf bands, then the delay
     shift: a pure function of the operand slots, so the engine's
     parallel schedule is bit-identical to the sequential sweep *)
  let eval _circuit _g driver operands =
    match driver with
    | Circuit.Gate _ ->
      let k = Array.length operands in
      let lower =
        Array.init n_grid (fun i ->
            let s = Array.fold_left (fun acc band -> acc +. (fst band).(i)) 0.0 operands in
            clamp01 (s -. float_of_int (k - 1)))
      in
      let upper =
        Array.init n_grid (fun i ->
            Array.fold_left (fun acc band -> Float.min acc (snd band).(i)) 1.0 operands)
      in
      (shift lower, shift upper)
    | Circuit.Input | Circuit.Dff_output _ -> assert false
  in
  let check = if Propagate.Sanitize.resolve check then Some band_check else None in
  let source _ = (source_cdf, source_cdf) in
  { grid; bands = Propagate.run ?check ?domains circuit ~source ~eval }

let band r id =
  let lower, upper = r.bands.Propagate.per_net.(id) in
  { times = r.grid; lower; upper }

let chip_band r =
  match Circuit.endpoints r.bands.Propagate.circuit with
  | [] -> invalid_arg "Bounds_ssta.chip_band: circuit has no endpoints"
  | endpoints ->
    let n_grid = Array.length r.grid in
    let k = List.length endpoints in
    let lower =
      Array.init n_grid (fun i ->
          let s =
            List.fold_left
              (fun acc e -> acc +. (fst r.bands.Propagate.per_net.(e)).(i))
              0.0 endpoints
          in
          clamp01 (s -. float_of_int (k - 1)))
    in
    let upper =
      Array.init n_grid (fun i ->
          List.fold_left
            (fun acc e -> Float.min acc (snd r.bands.Propagate.per_net.(e)).(i))
            1.0 endpoints)
    in
    { times = r.grid; lower; upper }

let cdf_bounds b t =
  let n = Array.length b.times in
  if n = 0 then (0.0, 1.0)
  else if t < b.times.(0) then (0.0, b.upper.(0))
  else begin
    (* largest grid point <= t *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi + 1) / 2 in
        if b.times.(mid) <= t then search mid hi else search lo (mid - 1)
      end
    in
    let i = search 0 (n - 1) in
    (b.lower.(i), b.upper.(i))
  end

let quantile_bounds b p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Bounds_ssta.quantile_bounds: p outside (0,1)";
  let first_reaching cdf =
    let n = Array.length cdf in
    let rec scan i = if i >= n then None else if cdf.(i) >= p then Some b.times.(i) else scan (i + 1) in
    scan 0
  in
  match (first_reaching b.upper, first_reaching b.lower) with
  | Some optimistic, Some pessimistic -> (optimistic, pessimistic)
  | _, None | None, _ ->
    invalid_arg "Bounds_ssta.quantile_bounds: quantile unreachable on the grid"
