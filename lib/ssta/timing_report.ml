module Circuit = Spsta_netlist.Circuit

type t = {
  circuit : Circuit.t;
  arrivals : float array;
  requireds : float array;
}

let analyze ?(input_arrival = 0.0) ~clock_period circuit =
  let n = Circuit.num_nets circuit in
  (* forward pass: the latest corner of unit-delay STA *)
  let window = { Sta.earliest = input_arrival; latest = input_arrival } in
  let sta = Sta.analyze ~input_bounds:window circuit in
  let arrivals = Array.init n (fun id -> (Sta.bounds sta id).Sta.latest) in
  (* backward pass: endpoints are constrained by the clock; a net's
     required time is the tightest of its fanouts' requirements minus the
     consuming gate's delay *)
  let requireds = Array.make n infinity in
  List.iter (fun e -> requireds.(e) <- Float.min requireds.(e) clock_period) (Circuit.endpoints circuit);
  let topo = Circuit.topo_gates circuit in
  for i = Array.length topo - 1 downto 0 do
    let g = topo.(i) in
    match Circuit.driver circuit g with
    | Circuit.Gate { inputs; _ } ->
      let budget = requireds.(g) -. Spsta_netlist.Cell_library.unit_gate_delay in
      Array.iter (fun input -> requireds.(input) <- Float.min requireds.(input) budget) inputs
    | Circuit.Input | Circuit.Dff_output _ -> assert false
  done;
  { circuit; arrivals; requireds }

let arrival t id = t.arrivals.(id)
let required t id = t.requireds.(id)
let slack t id = t.requireds.(id) -. t.arrivals.(id)

let worst_slack t =
  List.fold_left (fun acc e -> Float.min acc (slack t e)) infinity (Circuit.endpoints t.circuit)

let violations t =
  Circuit.endpoints t.circuit
  |> List.filter (fun e -> slack t e < 0.0)
  |> List.sort (fun a b -> compare (slack t a) (slack t b))

let worst_endpoint t =
  match Circuit.endpoints t.circuit with
  | [] -> invalid_arg "Timing_report: circuit has no endpoints"
  | first :: rest ->
    List.fold_left (fun best e -> if slack t e < slack t best then e else best) first rest

let worst_path t =
  let rec backtrace acc net =
    match Circuit.driver t.circuit net with
    | Circuit.Input | Circuit.Dff_output _ -> net :: acc
    | Circuit.Gate { inputs; _ } ->
      let critical_input =
        Array.fold_left
          (fun best i -> if t.arrivals.(i) > t.arrivals.(best) then i else best)
          inputs.(0) inputs
      in
      backtrace (net :: acc) critical_input
  in
  backtrace [] (worst_endpoint t)

let render circuit t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "worst slack: %.3f, violating endpoints: %d\n" (worst_slack t)
       (List.length (violations t)));
  Buffer.add_string buf "worst path:\n";
  List.iter
    (fun net ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s arrival %.3f  required %.3f  slack %.3f\n"
           (Circuit.net_name circuit net) (arrival t net) (required t net) (slack t net)))
    (worst_path t);
  Buffer.contents buf
