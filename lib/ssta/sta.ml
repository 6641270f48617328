module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Flat = Spsta_engine.Flat

type bounds = { earliest : float; latest : float }

(* The flat struct-of-arrays kernel; [bounds] records materialize at
   this boundary only. *)
type result = Flat.Sta.state

let default_input = { earliest = 0.0; latest = 0.0 }

let source_of ~input_bounds ~input_bounds_of =
  match input_bounds_of with Some f -> f | None -> fun _ -> input_bounds

let resolve_delay = function
  | Some f -> f
  | None -> fun _ -> Spsta_netlist.Cell_library.unit_gate_delay

(* Sanitizer checker: the [earliest, latest] window must stay a finite,
   ordered interval through every min/max/shift step. *)
let flat_check check =
  if Propagate.Sanitize.resolve check then
    Some
      (fun earliest latest ->
        Spsta_engine.Invariant.(first (check_interval ~what:"arrival window" (earliest, latest))))
  else None

let flat_source source id (b : Flat.Sta.buf) =
  let s = source id in
  b.Flat.Sta.b_early <- s.earliest;
  b.b_late <- s.latest

let analyze ?gate_delay_of ?(input_bounds = default_input) ?input_bounds_of ?check ?domains
    circuit =
  Flat.Sta.run
    ~source:(flat_source (source_of ~input_bounds ~input_bounds_of))
    ~delay:(resolve_delay gate_delay_of)
    ?check:(flat_check check) ?domains circuit

let update ?gate_delay_of ?(input_bounds = default_input) ?input_bounds_of ?check r ~changed =
  Flat.Sta.update
    ~source:(flat_source (source_of ~input_bounds ~input_bounds_of))
    ~delay:(resolve_delay gate_delay_of)
    ?check:(flat_check check) r ~changed

let bounds r id = { earliest = Flat.Sta.earliest r id; latest = Flat.Sta.latest r id }

let critical_endpoint r =
  match Circuit.endpoints (Flat.Sta.circuit r) with
  | [] -> invalid_arg "Sta.critical_endpoint: circuit has no endpoints"
  | first :: rest ->
    let latest = Flat.Sta.latest r in
    List.fold_left (fun best e -> if latest e > latest best then e else best) first rest

let max_latest r = Flat.Sta.latest r (critical_endpoint r)
