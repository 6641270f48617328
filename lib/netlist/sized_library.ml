module Gate_kind = Spsta_logic.Gate_kind

type t = {
  base : Cell_library.t;
  drives : float array;
}

let finite x = Float.is_finite x

(* Unit-drive area per kind, in arbitrary "grid" units: complexity-ordered
   like the default library's delays (inverter smallest, XOR largest). *)
let area_base = function
  | Gate_kind.Not -> 1.0
  | Gate_kind.Buf -> 1.2
  | Gate_kind.Nand -> 1.5
  | Gate_kind.Nor -> 1.5
  | Gate_kind.And -> 2.0
  | Gate_kind.Or -> 2.0
  | Gate_kind.Xor -> 3.0
  | Gate_kind.Xnor -> 3.0

(* Unit-drive switched capacitance, in femtofarads: tracks area (gate
   capacitance is proportional to transistor width). *)
let cap_base kind = 2.0 *. area_base kind

let family ?(sizes = 4) ?(ratio = 1.5) base =
  if sizes < 1 then invalid_arg "Sized_library.family: sizes must be at least 1";
  if not (finite ratio) || ratio <= 1.0 then
    invalid_arg "Sized_library.family: ratio must exceed 1";
  if not (finite (ratio ** float_of_int (sizes - 1))) then
    invalid_arg "Sized_library.family: the drive ladder overflows";
  { base; drives = Array.init sizes (fun k -> ratio ** float_of_int k) }

(* The scaling laws: a fixed intrinsic share of the base delay does not
   shrink with drive strength; area and capacitance grow with it. *)
let intrinsic = 0.3

let default = family Cell_library.default

let base t = t.base
let num_sizes t = Array.length t.drives

let drive t k =
  if k < 0 || k >= Array.length t.drives then
    invalid_arg
      (Printf.sprintf "Sized_library.drive: size %d outside [0, %d)" k (Array.length t.drives));
  t.drives.(k)

let delay t ~size kind ~fanin direction =
  let drive = drive t size in
  Cell_library.delay t.base kind ~fanin direction *. (intrinsic +. ((1.0 -. intrinsic) /. drive))

let rise_fall_of t ~size kind ~fanin =
  (delay t ~size kind ~fanin `Rise, delay t ~size kind ~fanin `Fall)

(* Fan-in widens the cell: extra input stacks add ~25% of the unit area
   each, matching the library's per-input delay increments in spirit. *)
let fanin_factor fanin = 1.0 +. (0.25 *. float_of_int (max 0 (fanin - 1)))

let area t ~size kind ~fanin =
  area_base kind *. fanin_factor fanin *. drive t size

let capacitance t ~size kind ~fanin =
  cap_base kind *. fanin_factor fanin *. drive t size

(* ---------- per-circuit assignments ---------- *)

type assignment = int array

let initial circuit = Array.make (Circuit.num_nets circuit) 0

let uniform t circuit ~size =
  if size < 0 || size >= num_sizes t then
    invalid_arg
      (Printf.sprintf "Sized_library.uniform: size %d outside [0, %d)" size (num_sizes t));
  (* non-gate entries stay 0, per the assignment convention *)
  Array.init (Circuit.num_nets circuit) (fun i ->
      match Circuit.driver circuit i with
      | Circuit.Gate _ -> size
      | Circuit.Input | Circuit.Dff_output _ -> 0)

let copy = Array.copy

let size_of (asg : assignment) id = asg.(id)

let gate_of circuit id ~what =
  match Circuit.driver circuit id with
  | Circuit.Gate { kind; inputs } -> (kind, Array.length inputs)
  | Circuit.Input | Circuit.Dff_output _ ->
    invalid_arg (Printf.sprintf "Sized_library.%s: net is not gate-driven" what)

let delay_rf t circuit (asg : assignment) id =
  let kind, fanin = gate_of circuit id ~what:"delay_rf" in
  rise_fall_of t ~size:asg.(id) kind ~fanin

let gate_area t circuit (asg : assignment) id =
  let kind, fanin = gate_of circuit id ~what:"gate_area" in
  area t ~size:asg.(id) kind ~fanin

let gate_capacitance t circuit (asg : assignment) id =
  let kind, fanin = gate_of circuit id ~what:"gate_capacitance" in
  capacitance t ~size:asg.(id) kind ~fanin

let total_over f t circuit asg =
  Array.fold_left (fun acc g -> acc +. f t circuit asg g) 0.0 (Circuit.topo_gates circuit)

let total_area t circuit asg = total_over gate_area t circuit asg
let total_capacitance t circuit asg = total_over gate_capacitance t circuit asg
