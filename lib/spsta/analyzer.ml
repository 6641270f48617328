module Circuit = Spsta_netlist.Circuit
module Propagate = Spsta_engine.Propagate
module Value4 = Spsta_logic.Value4
module Gate_kind = Spsta_logic.Gate_kind
module Timing_rule = Spsta_logic.Timing_rule
module Input_spec = Spsta_sim.Input_spec

module type S = Analyzer_intf.S

let default_max_enumerated_fanin = 6

(* Endpoint with the largest normalised mean arrival among those whose
   transition probability is nonzero, else the deepest endpoint. *)
let critical_endpoint_by circuit ~total ~mean =
  match Circuit.endpoints circuit with
  | [] -> invalid_arg "Analyzer.critical_endpoint: circuit has no endpoints"
  | (first :: _ as endpoints) -> (
    match List.filter (fun e -> total e > 0.0) endpoints with
    | [] ->
      List.fold_left
        (fun best e -> if Circuit.level circuit e > Circuit.level circuit best then e else best)
        first endpoints
    | e0 :: rest -> List.fold_left (fun best e -> if mean e > mean best then e else best) e0 rest )

module Make (B : Top.BACKEND) = struct
  type signal = { probs : Four_value.t; rise : B.top; fall : B.top }

  let source_signal (spec : Input_spec.t) =
    {
      probs = Four_value.of_input_spec spec;
      rise = B.of_normal ~weight:spec.Input_spec.p_rise spec.Input_spec.rise_arrival;
      fall = B.of_normal ~weight:spec.Input_spec.p_fall spec.Input_spec.fall_arrival;
    }

  (* The base, non-inverting associative kind of each gate; inversion is
     applied afterwards by swapping 0/1 and rise/fall. *)
  let base_kind = function
    | Gate_kind.And | Gate_kind.Nand -> Gate_kind.And
    | Gate_kind.Or | Gate_kind.Nor -> Gate_kind.Or
    | Gate_kind.Xor | Gate_kind.Xnor -> Gate_kind.Xor
    | Gate_kind.Not | Gate_kind.Buf -> Gate_kind.Buf

  let invert_signal s =
    {
      probs =
        Four_value.make ~p_zero:s.probs.Four_value.p_one ~p_one:s.probs.Four_value.p_zero
          ~p_rise:s.probs.Four_value.p_fall ~p_fall:s.probs.Four_value.p_rise;
      rise = s.fall;
      fall = s.rise;
    }

  let normalised top =
    let w = B.total top in
    if w > 0.0 then B.scale top (1.0 /. w) else top

  (* Eq. 11 generalised: enumerate input four-value combinations, weight
     each by the product of input probabilities, and combine the arrival
     pdfs of the transitioning inputs under the gate's MIN/MAX rule.
     [extra_term_delay rule out k] shifts a term decided by [k]
     switching inputs (the multiple-input-switching correction). *)
  let enumerate_gate ?extra_term_delay kind (inputs : signal array) =
    let k = Array.length inputs in
    let norm_rise = Array.map (fun s -> normalised s.rise) inputs in
    let norm_fall = Array.map (fun s -> normalised s.fall) inputs in
    let p_zero = ref 0.0 and p_one = ref 0.0 in
    (* in-place WEIGHTED SUM accumulation: one buffer per direction
       reused across the up-to-4^k enumerated terms *)
    let rise_acc = B.Acc.create () and fall_acc = B.Acc.create () in
    let rise_mass = ref 0.0 and fall_mass = ref 0.0 in
    let values = Array.make k Value4.Zero in
    let rec go i weight =
      if weight <= 0.0 then ()
      else if i = k then begin
        let out = Gate_kind.eval4 kind (Array.to_list values) in
        match out with
        | Value4.Zero -> p_zero := !p_zero +. weight
        | Value4.One -> p_one := !p_one +. weight
        | Value4.Rising | Value4.Falling ->
          let rule = Timing_rule.for_output kind out in
          let tops = ref [] in
          for j = k - 1 downto 0 do
            match values.(j) with
            | Value4.Rising -> tops := norm_rise.(j) :: !tops
            | Value4.Falling -> tops := norm_fall.(j) :: !tops
            | Value4.Zero | Value4.One -> ()
          done;
          (* a transition probability can be positive while its t.o.p.
             was epsilon-truncated to zero mass (weights ~1e-16 on deep
             circuits); such branches carry negligible weight — drop
             them and let the closing renormalisation absorb it *)
          if List.exists (fun top -> B.total top <= 0.0) !tops then ()
          else begin
          let combined = B.combine rule !tops in
          let combined =
            match extra_term_delay with
            | None -> combined
            | Some f ->
              let extra = f rule out (List.length !tops) in
              if extra = 0.0 then combined else B.shift combined extra
          in
          let contribution = B.scale combined weight in
          ( match out with
          | Value4.Rising ->
            B.Acc.add rise_acc contribution;
            rise_mass := !rise_mass +. weight
          | Value4.Falling ->
            B.Acc.add fall_acc contribution;
            fall_mass := !fall_mass +. weight
          | Value4.Zero | Value4.One -> assert false )
          end
      end
      else begin
        let dist = inputs.(i).probs in
        let branch v =
          let p = Four_value.prob dist v in
          if p > 0.0 then begin
            values.(i) <- v;
            go (i + 1) (weight *. p)
          end
        in
        List.iter branch Value4.all
      end
    in
    go 0 1.0;
    let total = !p_zero +. !p_one +. !rise_mass +. !fall_mass in
    let probs =
      Four_value.make ~p_zero:(!p_zero /. total) ~p_one:(!p_one /. total)
        ~p_rise:(!rise_mass /. total) ~p_fall:(!fall_mass /. total)
    in
    { probs; rise = B.compact (B.Acc.to_top rise_acc); fall = B.compact (B.Acc.to_top fall_acc) }

  let shift_signal s (d_rise, d_fall) sigma =
    if sigma > 0.0 then
      { s with
        rise = B.convolve_normal s.rise (Spsta_dist.Normal.make ~mu:d_rise ~sigma);
        fall = B.convolve_normal s.fall (Spsta_dist.Normal.make ~mu:d_fall ~sigma) }
    else
      { s with
        rise = (if d_rise = 0.0 then s.rise else B.shift s.rise d_rise);
        fall = (if d_fall = 0.0 then s.fall else B.shift s.fall d_fall) }

  let gate_output ?(gate_delay = 1.0) ?gate_delay_rf ?(delay_sigma = 0.0) ?mis
      ?(max_enumerated_fanin = default_max_enumerated_fanin) kind inputs =
    if inputs = [] then invalid_arg "Analyzer.gate_output: no inputs";
    let base = base_kind kind in
    let inputs = Array.of_list inputs in
    let delays =
      match gate_delay_rf with Some rf -> rf | None -> (gate_delay, gate_delay)
    in
    let extra_term_delay =
      (* MIS: a term decided by k simultaneous switching inputs gets its
         direction's delay scaled; the base enumeration's output
         direction maps to the inverted one for NAND/NOR/XNOR *)
      match mis with
      | None -> None
      | Some model ->
        let d_rise, d_fall = delays in
        Some
          (fun rule out k ->
            let final_out = if Gate_kind.inverting kind then Value4.lnot out else out in
            let d =
              match final_out with
              | Value4.Rising -> d_rise
              | Value4.Falling -> d_fall
              | Value4.Zero | Value4.One -> 0.0
            in
            d *. (Spsta_logic.Mis_model.factor model rule ~simultaneous:k -. 1.0))
    in
    let combined =
      match base with
      | Gate_kind.Buf -> inputs.(0)
      | Gate_kind.And | Gate_kind.Or | Gate_kind.Xor ->
        if Array.length inputs <= max_enumerated_fanin then
          enumerate_gate ?extra_term_delay base inputs
        else
          (* pairwise fold over the associative base kind (exact under
             the same input-independence assumption; MIS sees at most
             pairwise simultaneity on this path) *)
          Array.fold_left
            (fun acc s ->
              match acc with
              | None -> Some s
              | Some a -> Some (enumerate_gate ?extra_term_delay base [| a; s |]))
            None inputs
          |> Option.get
      | Gate_kind.Nand | Gate_kind.Nor | Gate_kind.Xnor | Gate_kind.Not -> assert false
    in
    let combined = if Gate_kind.inverting kind then invert_signal combined else combined in
    shift_signal combined delays delay_sigma

  type result = signal Propagate.result

  (* Sanitizer checker: validates every per-net signal the engine
     produces.  The four-value probabilities must be a distribution, each
     direction's t.o.p. must be internally healthy (finite, non-negative,
     sub-unit mass), and its total mass must match the transition
     probability up to the representation's own tracked truncation bound
     plus enumeration slack: branches whose t.o.p. was epsilon-truncated
     to zero mass still count toward the probability but not the mass. *)
  let signal_check : signal Propagate.Sanitize.check =
    fun _circuit _id s ->
    let open Spsta_lint.Invariant in
    let direction label p top =
      match B.check ~what:(label ^ " t.o.p.") top with
      | Some _ as violation -> violation
      | None ->
        first
          (check_mass_conservation
             ~what:(label ^ " t.o.p. mass")
             ~expected:p ~total:(B.total top) ~dropped:(B.dropped top))
    in
    match
      first
        (check_prob_sum ~what:"four-value probability"
           [
             ("p_zero", s.probs.Four_value.p_zero);
             ("p_one", s.probs.Four_value.p_one);
             ("p_rise", s.probs.Four_value.p_rise);
             ("p_fall", s.probs.Four_value.p_fall);
           ])
    with
    | Some _ as violation -> violation
    | None -> (
      match direction "rise" s.probs.Four_value.p_rise s.rise with
      | Some _ as violation -> violation
      | None -> direction "fall" s.probs.Four_value.p_fall s.fall )

  let domain ~spec eval : (module Propagate.DOMAIN with type state = signal) =
    (module struct
      type state = signal

      let source s = source_signal (spec s)
      let eval = eval
    end)

  let checked_domain ?check circuit dom =
    if Propagate.Sanitize.resolve check then
      Propagate.Sanitize.wrap ~circuit ~check:signal_check dom
    else dom

  (* The engine's per-gate transfer function, closed over the per-call
     parameters: a pure function of the gate's operand signals, which is
     what makes the engine's parallel schedule bit-identical to the
     sequential sweep. *)
  let gate_eval ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin () =
    fun _circuit g driver operands ->
      match driver with
      | Circuit.Gate { kind; _ } ->
        let gate_delay = match delay_of with Some f -> Some (f g) | None -> gate_delay in
        let gate_delay_rf = Option.map (fun f -> f g) delay_rf in
        gate_output ?gate_delay ?gate_delay_rf ?delay_sigma ?mis ?max_enumerated_fanin kind
          (Array.to_list operands)
      | Circuit.Input | Circuit.Dff_output _ -> assert false

  let analyze ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin ?check
      ?domains ?instrument circuit ~spec =
    let eval = gate_eval ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin () in
    let module D = (val checked_domain ?check circuit (domain ~spec eval)) in
    let module E = Propagate.Make (D) in
    E.run ?domains ?instrument circuit

  let circuit (r : result) = r.Propagate.circuit
  let signal (r : result) id = r.Propagate.per_net.(id)

  let update ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin ?check r
      ~changed ~spec =
    let eval = gate_eval ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin () in
    let module D =
      (val checked_domain ?check r.Propagate.circuit (domain ~spec eval))
    in
    let module E = Propagate.Make (D) in
    E.update r ~changed

  let direction_top s = function `Rise -> s.rise | `Fall -> s.fall

  let transition_stats s direction =
    let top = direction_top s direction in
    (B.mean top, B.stddev top, B.total top)

  let critical_endpoint (r : result) direction =
    let top e = direction_top r.per_net.(e) direction in
    critical_endpoint_by r.circuit ~total:(fun e -> B.total (top e)) ~mean:(fun e -> B.mean (top e))
end

(* The moment instantiation runs on the flat kernel ({!Moment_kernel});
   the record functor at the same backend is its oracle, and supplies
   the per-gate step, the source signal and the sanitizer predicate. *)
module Moments = struct
  module Oracle = Make (Top.Moment_backend)

  type signal = Oracle.signal = {
    probs : Four_value.t;
    rise : Top.Moment_backend.top;
    fall : Top.Moment_backend.top;
  }

  type result = Moment_kernel.t

  let source_signal = Oracle.source_signal
  let gate_output = Oracle.gate_output
  let transition_stats = Oracle.transition_stats
  let circuit = Moment_kernel.circuit

  let signal r id =
    { probs = Moment_kernel.probs r id; rise = Moment_kernel.top r `Rise id;
      fall = Moment_kernel.top r `Fall id }

  let params ?(gate_delay = 1.0) ?(delay_sigma = 0.0) ?delay_of ?delay_rf ?mis
      ?(max_enumerated_fanin = default_max_enumerated_fanin) ?check circuit ~spec =
    let source id =
      let s = source_signal (spec id) in
      (s.probs, s.rise, s.fall)
    in
    (* [delay_of] then [delay_rf], each once per evaluated gate, as the
       record path's [gate_eval] calls them *)
    let delay g (b : Spsta_engine.Flat.rf_buf) =
      let d = match delay_of with Some f -> f g | None -> gate_delay in
      match delay_rf with
      | Some f ->
        let d_rise, d_fall = f g in
        b.Spsta_engine.Flat.rise_mu <- d_rise;
        b.Spsta_engine.Flat.fall_mu <- d_fall
      | None ->
        b.Spsta_engine.Flat.rise_mu <- d;
        b.Spsta_engine.Flat.fall_mu <- d
    in
    let check =
      if Propagate.Sanitize.resolve check then
        Some (fun r id -> Oracle.signal_check circuit id (signal r id))
      else None
    in
    { Moment_kernel.source; delay; delay_sigma; mis; max_enumerated_fanin; check }

  let analyze ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin ?check
      ?domains ?instrument circuit ~spec =
    Moment_kernel.run
      (params ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin ?check
         circuit ~spec)
      ?domains ?instrument circuit

  let update ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin ?check r
      ~changed ~spec =
    Moment_kernel.update
      (params ?gate_delay ?delay_sigma ?delay_of ?delay_rf ?mis ?max_enumerated_fanin ?check
         (circuit r) ~spec)
      r ~changed

  let critical_endpoint r direction =
    critical_endpoint_by (circuit r) ~total:(Moment_kernel.total r direction)
      ~mean:(Moment_kernel.mean r direction)
end
