module Circuit = Spsta_netlist.Circuit
module Param_model = Spsta_variation.Param_model

type params = {
  gate_delay : float;
  driver_resistance : float;
  r_per_unit : float;
  c_per_unit : float;
  sink_cap : float;
  unit_length : float;
}

let default_params =
  {
    gate_delay = Spsta_netlist.Cell_library.unit_gate_delay;
    driver_resistance = 0.2;
    r_per_unit = 0.1;
    c_per_unit = 0.2;
    sink_cap = 0.1;
    unit_length = 1.0;
  }

type t = { params : params; trees : Rc_tree.t array; delays : float array }

let manhattan grid a b =
  let ax = a mod grid and ay = a / grid in
  let bx = b mod grid and by = b / grid in
  abs (ax - bx) + abs (ay - by)

let build ?(params = default_params) ?placement circuit =
  let n = Circuit.num_nets circuit in
  let tree_of_net id =
    let sinks = Circuit.fanout circuit id in
    let tree = Rc_tree.create ~driver_resistance:params.driver_resistance ~root_cap:0.0 () in
    Array.iter
      (fun sink ->
        let length =
          match placement with
          | None -> params.unit_length
          | Some (p, grid) ->
            let d = manhattan grid (Param_model.region p id) (Param_model.region p sink) in
            params.unit_length *. float_of_int (1 + d)
        in
        ignore
          (Rc_tree.add_child tree (Rc_tree.root tree)
             ~resistance:(params.r_per_unit *. length)
             ~capacitance:((params.c_per_unit *. length) +. params.sink_cap)))
      sinks;
    tree
  in
  let trees = Array.init n tree_of_net in
  let delays = Array.map Rc_tree.worst_elmore trees in
  { params; trees; delays }

let net_delay t id = t.delays.(id)
let stage_delay t id = t.params.gate_delay +. t.delays.(id)

let total_wire_capacitance t =
  Array.fold_left (fun acc tree -> acc +. Rc_tree.total_capacitance tree) 0.0 t.trees
