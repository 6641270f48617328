module Circuit = Spsta_netlist.Circuit
module Rng = Spsta_util.Rng

(* every gate's nominal delay is the paper's unit delay *)
let nominal = 1.0

type t = {
  sigma_global : float;
  sigma_spatial : float;
  sigma_random : float;
  grid : int;
}

let create ?(sigma_global = 0.0) ?(sigma_spatial = 0.0) ?(sigma_random = 0.0) ~grid () =
  if grid <= 0 then invalid_arg "Param_model.create: grid must be positive";
  List.iter
    (fun s -> if s < 0.0 then invalid_arg "Param_model.create: negative sigma")
    [ sigma_global; sigma_spatial; sigma_random ];
  { sigma_global; sigma_spatial; sigma_random; grid }

let grid t = t.grid
let num_params t = 1 + (t.grid * t.grid)

let total_sigma t =
  sqrt
    ((t.sigma_global *. t.sigma_global)
    +. (t.sigma_spatial *. t.sigma_spatial)
    +. (t.sigma_random *. t.sigma_random))

let delay_correlation t ~same_region =
  let var = total_sigma t ** 2.0 in
  if var <= 0.0 then 0.0
  else begin
    let shared =
      (t.sigma_global *. t.sigma_global)
      +. if same_region then t.sigma_spatial *. t.sigma_spatial else 0.0
    in
    shared /. var
  end

type placement = { regions : int array }

(* columns follow logic level so paths sweep across the die (spatially
   close stages correlate); rows are seeded-random *)
let place ?(seed = 0) t circuit =
  let n = Circuit.num_nets circuit in
  let rng = Rng.create ~seed in
  let depth = max 1 (Circuit.depth circuit) in
  let regions =
    Array.init n (fun id ->
        let col = Circuit.level circuit id * (t.grid - 1) / depth in
        let row = Rng.int rng t.grid in
        (row * t.grid) + min col (t.grid - 1))
  in
  { regions }

let region p id = p.regions.(id)

let gate_delay_canonical t p id =
  let sens = Array.make (num_params t) 0.0 in
  sens.(0) <- t.sigma_global;
  sens.(1 + region p id) <- t.sigma_spatial;
  Canonical.make ~mean:nominal ~sens ~rand:t.sigma_random

let sample_delays rng t p circuit =
  let g = Rng.gaussian rng ~mu:0.0 ~sigma:1.0 in
  let spatial = Array.init (t.grid * t.grid) (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  let n = Circuit.num_nets circuit in
  let delays =
    Array.init n (fun id ->
        nominal +. (t.sigma_global *. g)
        +. (t.sigma_spatial *. spatial.(region p id))
        +. (t.sigma_random *. Rng.gaussian rng ~mu:0.0 ~sigma:1.0))
  in
  fun id -> delays.(id)
