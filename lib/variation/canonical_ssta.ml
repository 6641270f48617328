module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Gate_kind = Spsta_logic.Gate_kind

type arrival = { rise : Canonical.t; fall : Canonical.t }

type result = arrival Propagate.result

let base_arrivals kind inputs =
  match kind with
  | Gate_kind.Not | Gate_kind.Buf -> (
    match inputs with
    | [ a ] -> (a.rise, a.fall)
    | [] | _ :: _ -> invalid_arg "Canonical_ssta: NOT/BUF expects one input" )
  | Gate_kind.And | Gate_kind.Nand ->
    ( Canonical.max_many (List.map (fun a -> a.rise) inputs),
      Canonical.min_many (List.map (fun a -> a.fall) inputs) )
  | Gate_kind.Or | Gate_kind.Nor ->
    ( Canonical.min_many (List.map (fun a -> a.rise) inputs),
      Canonical.max_many (List.map (fun a -> a.fall) inputs) )
  | Gate_kind.Xor | Gate_kind.Xnor ->
    let both = List.concat_map (fun a -> [ a.rise; a.fall ]) inputs in
    let settle = Canonical.max_many both in
    (settle, settle)

(* Sanitizer checker: a canonical form must keep a finite mean, finite
   sensitivities, and a finite non-negative independent sigma through
   every SUM / Clark MAX step. *)
let canonical_check ~what (c : Canonical.t) =
  let open Spsta_engine.Invariant in
  check_finite ~what:(what ^ " mean") c.Canonical.mean
  @ (if not (finite c.Canonical.rand) then
       [ { rule = "non-finite"; message = Printf.sprintf "%s independent sigma is %h" what c.Canonical.rand } ]
     else if c.Canonical.rand < 0.0 then
       [
         {
           rule = "negative-sigma";
           message =
             Printf.sprintf "%s independent sigma is negative (%.17g)" what c.Canonical.rand;
         };
       ]
     else [])
  @ (Array.to_list c.Canonical.sens
    |> List.concat_map (fun s -> check_finite ~what:(what ^ " sensitivity") s))

let arrival_check : arrival Propagate.Sanitize.check =
 fun _circuit _id a ->
  Spsta_engine.Invariant.first
    (canonical_check ~what:"rise arrival" a.rise @ canonical_check ~what:"fall arrival" a.fall)

let analyze ?(input_sigma = 1.0) ?check ?domains model placement circuit =
  let nparams = Param_model.num_params model in
  let source_arrival =
    let s = Canonical.make ~mean:0.0 ~sens:(Array.make nparams 0.0) ~rand:input_sigma in
    { rise = s; fall = s }
  in
  (* pure in its operands ([gate_delay_canonical] allocates a fresh
     sensitivity vector per call and only reads the model), so the
     engine's parallel schedule is bit-identical to the sequential
     sweep *)
  let eval _circuit g driver operands =
    match driver with
    | Circuit.Gate { kind; _ } ->
      let base_rise, base_fall = base_arrivals kind (Array.to_list operands) in
      let rise0, fall0 =
        if Gate_kind.inverting kind then (base_fall, base_rise) else (base_rise, base_fall)
      in
      let delay = Param_model.gate_delay_canonical model placement g in
      { rise = Canonical.add rise0 delay; fall = Canonical.add fall0 delay }
    | Circuit.Input | Circuit.Dff_output _ -> assert false
  in
  let check = if Propagate.Sanitize.resolve check then Some arrival_check else None in
  Propagate.run ?check ?domains circuit ~source:(fun _ -> source_arrival) ~eval

let arrival (r : result) id = r.Propagate.per_net.(id)

let of_direction a = function `Rise -> a.rise | `Fall -> a.fall

let critical_endpoint (r : result) direction =
  match Circuit.endpoints r.circuit with
  | [] -> invalid_arg "Canonical_ssta.critical_endpoint: circuit has no endpoints"
  | first :: rest ->
    let mean e = (of_direction r.per_net.(e) direction).Canonical.mean in
    List.fold_left (fun best e -> if mean e > mean best then e else best) first rest

let endpoint_correlation (r : result) direction a b =
  Canonical.correlation (of_direction r.per_net.(a) direction) (of_direction r.per_net.(b) direction)

let chip_delay (r : result) =
  let forms =
    List.concat_map
      (fun e -> [ r.per_net.(e).rise; r.per_net.(e).fall ])
      (Circuit.endpoints r.circuit)
  in
  Canonical.max_many forms
