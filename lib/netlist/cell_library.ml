module Gate_kind = Spsta_logic.Gate_kind

type t = {
  base : Gate_kind.t -> float;
  per_input : Gate_kind.t -> float;
  rise_fall_skew : Gate_kind.t -> float;
}

let validate t =
  List.iter
    (fun kind ->
      if t.base kind < 0.0 then invalid_arg "Cell_library.make: negative base delay";
      if t.per_input kind < 0.0 then invalid_arg "Cell_library.make: negative per-input delay";
      if Float.abs (t.rise_fall_skew kind) >= 1.0 then
        invalid_arg "Cell_library.make: skew magnitude must be below 1")
    Gate_kind.all;
  t

let make ~base ~per_input ~rise_fall_skew = validate { base; per_input; rise_fall_skew }

let unit_gate_delay = 1.0

let unit_delay =
  make ~base:(fun _ -> unit_gate_delay) ~per_input:(fun _ -> 0.0) ~rise_fall_skew:(fun _ -> 0.0)

let default =
  let base = function
    | Gate_kind.Not -> 0.6
    | Gate_kind.Buf -> 0.7
    | Gate_kind.Nand -> 0.8
    | Gate_kind.Nor -> 0.9
    | Gate_kind.And -> 1.0
    | Gate_kind.Or -> 1.0
    | Gate_kind.Xor -> 1.4
    | Gate_kind.Xnor -> 1.4
  in
  let per_input = function
    | Gate_kind.Not | Gate_kind.Buf -> 0.0
    | Gate_kind.Nand | Gate_kind.Nor | Gate_kind.And | Gate_kind.Or -> 0.15
    | Gate_kind.Xor | Gate_kind.Xnor -> 0.25
  in
  let rise_fall_skew = function
    | Gate_kind.Nand -> 0.10 (* pmos pull-up is weaker: rise slower *)
    | Gate_kind.Nor -> 0.15
    | Gate_kind.Not -> 0.05
    | Gate_kind.And | Gate_kind.Or | Gate_kind.Xor | Gate_kind.Xnor | Gate_kind.Buf -> 0.0
  in
  make ~base ~per_input ~rise_fall_skew

let nominal t kind ~fanin = t.base kind +. (t.per_input kind *. float_of_int (max 0 (fanin - 1)))

let delay t kind ~fanin direction =
  let d = nominal t kind ~fanin in
  match direction with
  | `Rise -> d *. (1.0 +. t.rise_fall_skew kind)
  | `Fall -> d *. (1.0 -. t.rise_fall_skew kind)

let rise_fall_of t kind ~fanin = (delay t kind ~fanin `Rise, delay t kind ~fanin `Fall)

let gate_delays t circuit id =
  match Circuit.driver circuit id with
  | Circuit.Gate { kind; inputs } -> rise_fall_of t kind ~fanin:(Array.length inputs)
  | Circuit.Input | Circuit.Dff_output _ ->
    invalid_arg "Cell_library.gate_delays: net is not gate-driven"
