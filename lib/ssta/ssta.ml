module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Flat = Spsta_engine.Flat
module Gate_kind = Spsta_logic.Gate_kind
module Normal = Spsta_dist.Normal
module Clark = Spsta_dist.Clark
module Cell_library = Spsta_netlist.Cell_library

type arrival = { rise : Normal.t; fall : Normal.t }

(* The flat kernel computes the analysis; the record engine
   ([Propagate.run]) is the test oracle.  The two are bit-identical by
   construction, so a result follows whichever engine produced it and
   [arrival] records materialize only at this API boundary. *)
type result = Flat_r of Flat.Ssta.state | Boxed of arrival Propagate.result

let default_input = { rise = Normal.standard; fall = Normal.standard }

(* Base (non-inverted) gate timing: which inputs feed the output rise and
   under which operation.  AND: output rise = MAX of input rises, output
   fall = MIN of input falls; OR is the dual; XOR is direction-agnostic
   and conservatively takes the MAX over both directions of all inputs. *)
let rise_of a = a.rise
let fall_of a = a.fall

let base_arrivals kind (inputs : arrival array) =
  match kind with
  | Gate_kind.Not | Gate_kind.Buf ->
    if Array.length inputs = 1 then (inputs.(0).rise, inputs.(0).fall)
    else invalid_arg "Ssta: NOT/BUF expects one input"
  | Gate_kind.And | Gate_kind.Nand ->
    (Clark.max_normal_map rise_of inputs, Clark.min_normal_map fall_of inputs)
  | Gate_kind.Or | Gate_kind.Nor ->
    (Clark.min_normal_map rise_of inputs, Clark.max_normal_map fall_of inputs)
  | Gate_kind.Xor | Gate_kind.Xnor ->
    let settle = Clark.max_normal_map2 rise_of fall_of inputs in
    (settle, settle)

(* The engine's per-gate transfer function: a pure function of the
   gate's operand arrivals, which is what makes the levelized parallel
   schedule bit-identical to the sequential sweep. *)
let gate_eval ~delays _circuit g driver operands =
  match driver with
  | Circuit.Gate { kind; _ } ->
    let base_rise, base_fall = base_arrivals kind operands in
    let rise0, fall0 =
      if Gate_kind.inverting kind then (base_fall, base_rise) else (base_rise, base_fall)
    in
    let d_rise, d_fall = delays g in
    { rise = Normal.sum rise0 d_rise; fall = Normal.sum fall0 d_fall }
  | Circuit.Input | Circuit.Dff_output _ -> assert false

let source_of ~input_arrival ~input_arrival_of =
  match input_arrival_of with Some f -> f | None -> fun _ -> input_arrival

(* Sanitizer checker: both direction arrivals must stay finite with
   non-negative sigmas through every SUM / Clark MAX step. *)
let arrival_check : arrival Propagate.Sanitize.check =
 fun _circuit _id a ->
  let open Spsta_engine.Invariant in
  first
    (check_normal ~what:"rise arrival" a.rise @ check_normal ~what:"fall arrival" a.fall)

(* --- record engine ------------------------------------------------- *)

let record_check check = if Propagate.Sanitize.resolve check then Some arrival_check else None

(* A gate's delay moments as the normals [gate_eval] sums, read through
   the flat kernel's writer, so the two engines cannot resolve a gate's
   delay differently. *)
let record_delay delay g =
  let b = Flat.rf_buf () in
  delay g b;
  (Normal.make ~mu:b.Flat.rise_mu ~sigma:b.rise_sig, Normal.make ~mu:b.fall_mu ~sigma:b.fall_sig)

(* --- flat engine --------------------------------------------------- *)

(* The same per-net invariants ([arrival_check]), applied to the flat
   kernel's float slots without materializing records; the kernel
   locates violations itself. *)
let flat_check check =
  if Propagate.Sanitize.resolve check then
    Some
      (fun rise_mu rise_sig fall_mu fall_sig ->
        let open Spsta_engine.Invariant in
        first
          (check_normal_parts ~what:"rise arrival" ~mean:rise_mu ~sigma:rise_sig
          @ check_normal_parts ~what:"fall arrival" ~mean:fall_mu ~sigma:fall_sig))
  else None

let flat_source source id (b : Flat.rf_buf) =
  let a = source id in
  b.Flat.rise_mu <- Normal.mean a.rise;
  b.rise_sig <- Normal.stddev a.rise;
  b.fall_mu <- Normal.mean a.fall;
  b.fall_sig <- Normal.stddev a.fall

(* Per-gate delay writers.  The unit-delay default writes four
   constants per gate, no intermediate records or tuples at all. *)
let flat_delay_uniform (_g : Circuit.id) (b : Flat.rf_buf) =
  b.Flat.rise_mu <- Cell_library.unit_gate_delay;
  b.rise_sig <- 0.0;
  b.fall_mu <- Cell_library.unit_gate_delay;
  b.fall_sig <- 0.0

let flat_delay_variational gate_delay g (b : Flat.rf_buf) =
  let d = gate_delay g in
  b.Flat.rise_mu <- Normal.mean d;
  b.rise_sig <- Normal.stddev d;
  b.fall_mu <- Normal.mean d;
  b.fall_sig <- Normal.stddev d

let flat_delay_rf delay_rf g (b : Flat.rf_buf) =
  let rise, fall = delay_rf g in
  b.Flat.rise_mu <- rise;
  b.rise_sig <- 0.0;
  b.fall_mu <- fall;
  b.fall_sig <- 0.0

(* The one place a gate's delay is resolved, for both engines: the
   caller's (rise, fall) pair, else the paper's unit delay. *)
let flat_delay = function None -> flat_delay_uniform | Some delay_rf -> flat_delay_rf delay_rf

let run_flat ~delay ~source ?check ?domains circuit =
  Flat_r (Flat.Ssta.run ~source:(flat_source source) ~delay ?check:(flat_check check) ?domains circuit)

(* --- entry points -------------------------------------------------- *)

let analyze_rf ?delay_rf ?(input_arrival = default_input) ?input_arrival_of ?check ?domains
    ?(engine = `Flat) circuit =
  let source = source_of ~input_arrival ~input_arrival_of in
  let delay = flat_delay delay_rf in
  match engine with
  | `Flat -> run_flat ~delay ~source ?check ?domains circuit
  | `Record ->
    Boxed
      (Propagate.run ?check:(record_check check) ?domains circuit ~source
         ~eval:(gate_eval ~delays:(record_delay delay)))

let analyze ?delay_rf ?input_arrival ?input_arrival_of ?check ?domains circuit =
  analyze_rf ?delay_rf ?input_arrival ?input_arrival_of ?check ?domains circuit

let analyze_variational ~gate_delay ?(input_arrival = default_input) ?input_arrival_of ?check
    ?domains circuit =
  run_flat ~delay:(flat_delay_variational gate_delay)
    ~source:(source_of ~input_arrival ~input_arrival_of)
    ?check ?domains circuit

(* Updates refine the result in place on whichever engine produced it,
   so a record-engine oracle stays on the record engine through a whole
   incremental run and a flat result never pays boxing. *)
let update ?delay_rf ?(input_arrival = default_input) ?input_arrival_of ?check r ~changed =
  let source = source_of ~input_arrival ~input_arrival_of in
  let delay = flat_delay delay_rf in
  match r with
  | Flat_r st ->
    Flat.Ssta.update ~source:(flat_source source) ~delay ?check:(flat_check check) st ~changed
  | Boxed br ->
    Propagate.update ?check:(record_check check) br ~source
      ~eval:(gate_eval ~delays:(record_delay delay))
      ~changed

let copy = function
  | Flat_r st -> Flat_r (Flat.Ssta.copy st)
  | Boxed br -> Boxed { br with Propagate.per_net = Array.copy br.Propagate.per_net }

(* --- accessors ----------------------------------------------------- *)

let circuit_of = function
  | Flat_r st -> Flat.Ssta.circuit st
  | Boxed r -> r.Propagate.circuit

let arrival r id =
  match r with
  | Boxed r -> r.Propagate.per_net.(id)
  | Flat_r st ->
    {
      rise = Normal.make ~mu:(Flat.Ssta.rise_mean st id) ~sigma:(Flat.Ssta.rise_sigma st id);
      fall = Normal.make ~mu:(Flat.Ssta.fall_mean st id) ~sigma:(Flat.Ssta.fall_sigma st id);
    }

let mean_at r direction id =
  match (r, direction) with
  | Boxed b, `Rise -> Normal.mean b.Propagate.per_net.(id).rise
  | Boxed b, `Fall -> Normal.mean b.Propagate.per_net.(id).fall
  | Flat_r st, `Rise -> Flat.Ssta.rise_mean st id
  | Flat_r st, `Fall -> Flat.Ssta.fall_mean st id

let critical_endpoint r direction =
  match Circuit.endpoints (circuit_of r) with
  | [] -> invalid_arg "Ssta.critical_endpoint: circuit has no endpoints"
  | first :: rest ->
    List.fold_left
      (fun best e -> if mean_at r direction e > mean_at r direction best then e else best)
      first rest

let max_arrival r direction =
  let a = arrival r (critical_endpoint r direction) in
  match direction with `Rise -> a.rise | `Fall -> a.fall
