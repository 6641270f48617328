(* Corner STA on the record engine: per-net [Sta.bounds] records folded
   by [Propagate.run], the boxed oracle that the flat kernel behind
   [Sta.analyze] must match bit for bit.  The per-gate fold is the one
   [Sta] ran on the record engine: [Float.min]/[Float.max] from the
   infinities, then the gate delay. *)

module Propagate = Spsta_engine.Propagate
module Sta = Spsta_ssta.Sta

let eval ~gate_delay_of _circuit g _driver (operands : Sta.bounds array) =
  let earliest =
    Array.fold_left (fun acc (b : Sta.bounds) -> Float.min acc b.earliest) infinity operands
  in
  let latest =
    Array.fold_left (fun acc (b : Sta.bounds) -> Float.max acc b.latest) neg_infinity operands
  in
  let d = gate_delay_of g in
  { Sta.earliest = earliest +. d; latest = latest +. d }

let source input_bounds_of =
  match input_bounds_of with Some f -> f | None -> fun _ -> { Sta.earliest = 0.0; latest = 0.0 }

let delay gate_delay_of = match gate_delay_of with Some f -> f | None -> fun _ -> 1.0

let analyze ?gate_delay_of ?input_bounds_of ?domains c =
  Propagate.run ?domains c ~source:(source input_bounds_of)
    ~eval:(eval ~gate_delay_of:(delay gate_delay_of))

let update ?gate_delay_of ?input_bounds_of r ~changed =
  Propagate.update r ~source:(source input_bounds_of)
    ~eval:(eval ~gate_delay_of:(delay gate_delay_of))
    ~changed

let bounds (r : Sta.bounds Propagate.result) id = r.Propagate.per_net.(id)
