module Circuit = Spsta_netlist.Circuit
module Truth = Spsta_logic.Truth
module Mixture = Spsta_dist.Mixture
module Input_spec = Spsta_sim.Input_spec

type net_top = { rate : float; top : Mixture.t }

type t = net_top array

let compute circuit ~spec =
  let sp =
    Signal_prob.compute circuit ~p_source:(fun s -> Input_spec.signal_probability (spec s))
  in
  let n = Circuit.num_nets circuit in
  let per_net = Array.make n { rate = 0.0; top = Mixture.empty } in
  let init_source s =
    let i = spec s in
    let top =
      Mixture.add
        (Mixture.singleton ~weight:i.Input_spec.p_rise i.Input_spec.rise_arrival)
        (Mixture.singleton ~weight:i.Input_spec.p_fall i.Input_spec.fall_arrival)
    in
    per_net.(s) <- { rate = Input_spec.toggling_rate i; top }
  in
  List.iter init_source (Circuit.sources circuit);
  let step g kind inputs =
    let k = Array.length inputs in
    let truth = Truth.of_gate kind ~arity:k in
    let p = Array.map (fun i -> Signal_prob.prob sp i) inputs in
    let contributions =
      List.init k (fun i ->
          let weight = Truth.prob_one (Truth.boolean_difference truth i) p in
          Mixture.scale per_net.(inputs.(i)).top weight)
    in
    let combined =
      Mixture.add_delay (Mixture.sum contributions) Spsta_netlist.Cell_library.unit_gate_delay
    in
    let combined = Mixture.compact ~max_components:16 combined in
    per_net.(g) <- { rate = Mixture.total_weight combined; top = combined }
  in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } -> step g kind inputs
      | Circuit.Input | Circuit.Dff_output _ -> assert false)
    (Circuit.topo_gates circuit);
  per_net

let top t id = t.(id)
let toggling_rate t id = t.(id).rate
let mean_arrival t id = Mixture.mean t.(id).top
let stddev_arrival t id = Mixture.stddev t.(id).top
