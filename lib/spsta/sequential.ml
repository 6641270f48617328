module Circuit = Spsta_netlist.Circuit
module Input_spec = Spsta_sim.Input_spec
module Normal = Spsta_dist.Normal

type t = {
  circuit : Circuit.t;
  per_net : Four_value.t array;
  ff_q : (Circuit.id, float) Hashtbl.t; (* Q net -> steady-state final-one prob of its D *)
  iterations : int;
  converged : bool;
}

let launch_dist q =
  Four_value.make ~p_zero:((1.0 -. q) *. (1.0 -. q)) ~p_one:(q *. q)
    ~p_rise:(q *. (1.0 -. q)) ~p_fall:(q *. (1.0 -. q))

(* one probability-only propagation pass given flip-flop launch q's *)
let propagate circuit ~pi_spec ~q_of =
  let n = Circuit.num_nets circuit in
  let zero = Four_value.make ~p_zero:1.0 ~p_one:0.0 ~p_rise:0.0 ~p_fall:0.0 in
  let per_net = Array.make n zero in
  List.iter (fun s -> per_net.(s) <- Four_value.of_input_spec (pi_spec s)) (Circuit.primary_inputs circuit);
  List.iter (fun (qnet, _) -> per_net.(qnet) <- launch_dist (q_of qnet)) (Circuit.dffs circuit);
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } ->
        per_net.(g) <-
          Four_value.gate_output kind (Array.to_list (Array.map (fun i -> per_net.(i)) inputs))
      | Circuit.Input | Circuit.Dff_output _ -> assert false)
    (Circuit.topo_gates circuit);
  per_net

let max_iterations = 100
let tolerance = 1e-9

let fixed_point ?(damping = 1.0) circuit ~pi_spec =
  if not (damping > 0.0 && damping <= 1.0) then
    invalid_arg "Sequential.fixed_point: damping outside (0,1]";
  let q = Hashtbl.create 16 in
  List.iter (fun (qnet, _) -> Hashtbl.replace q qnet 0.5) (Circuit.dffs circuit);
  let rec iterate i =
    let per_net = propagate circuit ~pi_spec ~q_of:(Hashtbl.find q) in
    let delta = ref 0.0 in
    List.iter
      (fun (qnet, d) ->
        let estimate = Four_value.final_one per_net.(d) in
        let previous = Hashtbl.find q qnet in
        let next = previous +. (damping *. (estimate -. previous)) in
        delta := Float.max !delta (Float.abs (next -. previous));
        Hashtbl.replace q qnet next)
      (Circuit.dffs circuit);
    if !delta < tolerance then (per_net, i, true)
    else if i >= max_iterations then (per_net, i, false)
    else iterate (i + 1)
  in
  let per_net, iterations, converged = iterate 1 in
  { circuit; per_net; ff_q = q; iterations; converged }

let converged t = t.converged
let iterations t = t.iterations

let ff_final_one t id =
  match Hashtbl.find_opt t.ff_q id with
  | Some q -> q
  | None -> invalid_arg "Sequential.ff_final_one: not a flip-flop output net"

let probs t id = t.per_net.(id)

let clock_edge = Normal.make ~mu:0.0 ~sigma:0.0

let spec t ~pi_spec id =
  match Hashtbl.find_opt t.ff_q id with
  | None -> pi_spec id
  | Some q ->
    let d = launch_dist q in
    Input_spec.make ~rise_arrival:clock_edge ~fall_arrival:clock_edge
      ~p_zero:d.Four_value.p_zero ~p_one:d.Four_value.p_one ~p_rise:d.Four_value.p_rise
      ~p_fall:d.Four_value.p_fall ()
