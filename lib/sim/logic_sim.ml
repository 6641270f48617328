module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Gate_kind = Spsta_logic.Gate_kind
module Timing_rule = Spsta_logic.Timing_rule
module Cell_library = Spsta_netlist.Cell_library

type result = { values : Value4.t array; times : float array }

(* the delay of gate [g]'s [out] transition: the caller's (rise, fall)
   pair, else the paper's unit delay *)
let delay_for delay_rf g out =
  match delay_rf with
  | None -> Cell_library.unit_gate_delay
  | Some f ->
    let rise, fall = f g in
    if Value4.equal out Value4.Rising then rise else fall

let run ?delay_rf ?mis circuit ~source_values =
  let delay_for = delay_for delay_rf in
  let n = Circuit.num_nets circuit in
  let values = Array.make n Value4.Zero in
  let times = Array.make n 0.0 in
  let assign_source s =
    let v, t = source_values s in
    values.(s) <- v;
    times.(s) <- t
  in
  List.iter assign_source (Circuit.sources circuit);
  let eval_gate g kind inputs =
    let in_values = Array.map (fun i -> values.(i)) inputs in
    let out = Gate_kind.eval4 kind (Array.to_list in_values) in
    values.(g) <- out;
    if Value4.is_transition out then begin
      let rule = Timing_rule.for_output kind out in
      let transition_times = ref [] in
      Array.iteri
        (fun idx v ->
          if Value4.is_transition v then transition_times := times.(inputs.(idx)) :: !transition_times)
        in_values;
      let winner = Timing_rule.combine rule !transition_times in
      let delay =
        match mis with
        | None -> delay_for g out
        | Some model ->
          let simultaneous =
            List.length
              (List.filter
                 (fun t ->
                   Float.abs (t -. winner) <= model.Spsta_logic.Mis_model.window)
                 !transition_times)
          in
          delay_for g out *. Spsta_logic.Mis_model.factor model rule ~simultaneous
      in
      times.(g) <- winner +. delay
    end
  in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } -> eval_gate g kind inputs
      | Circuit.Input | Circuit.Dff_output _ -> assert false)
    (Circuit.topo_gates circuit);
  { values; times }

let run_random ?(delay_sigma = 0.0) ?mis rng circuit ~spec =
  let delay_rf =
    if delay_sigma > 0.0 then begin
      (* one independent delay sample per gate for this run *)
      let delays =
        Array.init (Circuit.num_nets circuit) (fun _ ->
            Spsta_util.Rng.gaussian rng ~mu:Cell_library.unit_gate_delay ~sigma:delay_sigma)
      in
      Some (fun g -> (delays.(g), delays.(g)))
    end
    else None
  in
  run ?delay_rf ?mis circuit ~source_values:(fun s -> Input_spec.sample rng (spec s))
