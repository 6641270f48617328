module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Stats = Spsta_util.Stats
module Rng = Spsta_util.Rng

type result = {
  circuit : Circuit.t;
  cycles : int;
  per_net : Monte_carlo.net_stats array;
}

type acc = {
  mutable zero : int;
  mutable one : int;
  mutable rise : int;
  mutable fall : int;
  rise_acc : Stats.acc;
  fall_acc : Stats.acc;
}

let simulate ?(warmup = 200) ?(cycles = 10_000) ~seed circuit ~pi_spec =
  let rng = Rng.create ~seed in
  let dffs = Array.of_list (Circuit.dffs circuit) in
  let n_ff = Array.length dffs in
  (* prev.(i) = captured value two edges ago, state.(i) = at the last edge *)
  let prev = Array.init n_ff (fun _ -> Rng.bool rng) in
  let state = Array.init n_ff (fun _ -> Rng.bool rng) in
  let ff_index = Hashtbl.create 16 in
  Array.iteri (fun i (qnet, _) -> Hashtbl.replace ff_index qnet i) dffs;
  let n = Circuit.num_nets circuit in
  let accs =
    Array.init n (fun _ ->
        { zero = 0; one = 0; rise = 0; fall = 0; rise_acc = Stats.acc_create ();
          fall_acc = Stats.acc_create () })
  in
  let source_values s =
    match Hashtbl.find_opt ff_index s with
    | Some i -> (Value4.of_initial_final prev.(i) state.(i), 0.0)
    | None -> Input_spec.sample rng (pi_spec s)
  in
  let record r =
    for i = 0 to n - 1 do
      let a = accs.(i) in
      match r.Logic_sim.values.(i) with
      | Value4.Zero -> a.zero <- a.zero + 1
      | Value4.One -> a.one <- a.one + 1
      | Value4.Rising ->
        a.rise <- a.rise + 1;
        Stats.acc_add a.rise_acc r.Logic_sim.times.(i)
      | Value4.Falling ->
        a.fall <- a.fall + 1;
        Stats.acc_add a.fall_acc r.Logic_sim.times.(i)
    done
  in
  let step ~measure =
    let r = Logic_sim.run circuit ~source_values in
    if measure then record r;
    (* capture: D's settled end-of-cycle value becomes next state *)
    Array.iteri
      (fun i (_, d) ->
        prev.(i) <- state.(i);
        state.(i) <- Value4.final r.Logic_sim.values.(d))
      dffs
  in
  for _ = 1 to warmup do
    step ~measure:false
  done;
  for _ = 1 to cycles do
    step ~measure:true
  done;
  let per_net =
    Array.map
      (fun a ->
        {
          Monte_carlo.n_runs = cycles;
          count_zero = a.zero;
          count_one = a.one;
          count_rise = a.rise;
          count_fall = a.fall;
          rise_times = a.rise_acc;
          fall_times = a.fall_acc;
        })
      accs
  in
  { circuit; cycles; per_net }

let stats r id = r.per_net.(id)
