module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Rng = Spsta_util.Rng

type result = {
  circuit : Circuit.t;
  cycles : int;
  per_net : Monte_carlo.net_stats array;
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
  let source_values s =
    match Hashtbl.find_opt ff_index s with
    | Some i -> (Value4.of_initial_final prev.(i) state.(i), 0.0)
    | None -> Input_spec.sample rng (pi_spec s)
  in
  let step () =
    let r = Logic_sim.run circuit ~source_values in
    (* capture: D's settled end-of-cycle value becomes next state *)
    Array.iteri
      (fun i (_, d) ->
        prev.(i) <- state.(i);
        state.(i) <- Value4.final r.Logic_sim.values.(d))
      dffs;
    r
  in
  for _ = 1 to warmup do
    ignore (step ())
  done;
  let measured = Monte_carlo.tally circuit ~runs:cycles (fun _ -> step ()) in
  { circuit; cycles; per_net = measured.Monte_carlo.per_net }

let stats r id = r.per_net.(id)
