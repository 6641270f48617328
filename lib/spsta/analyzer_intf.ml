(* The analyzer signature, in its own unit so that both analyzer.mli
   and analyzer.ml can name it. *)

(** An analyzer over t.o.p. functions of type [top]. *)
module type S = sig
  type top

  type signal = {
    probs : Four_value.t;
    rise : top;  (** total mass = probs.p_rise *)
    fall : top;  (** total mass = probs.p_fall *)
  }

  val source_signal : Spsta_sim.Input_spec.t -> signal
  (** The signal of a timing source under the given input statistics. *)

  val gate_output :
    ?gate_delay_rf:float * float ->
    ?delay_sigma:float ->
    ?mis:Spsta_logic.Mis_model.t ->
    ?max_enumerated_fanin:int ->
    Spsta_logic.Gate_kind.t ->
    signal list ->
    signal
  (** One gate step (exposed for unit tests and the Fig. 4 bench).
      Inputs are treated as independent.  Fan-ins above
      [max_enumerated_fanin] (default 6) are folded pairwise over the
      gate's base associative kind, which is exact under the same
      independence assumption.  [gate_delay_rf] is the gate's (rise,
      fall) delay (default: the unit delay); a positive [delay_sigma]
      models process variation as an independent normal delay per gate
      (default 0). *)

  type result

  val analyze :
    ?delay_sigma:float ->
    ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
    ?mis:Spsta_logic.Mis_model.t ->
    ?max_enumerated_fanin:int ->
    ?check:bool ->
    ?domains:int ->
    Spsta_netlist.Circuit.t ->
    spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
    result
  (** [delay_rf] gives each gate's (rise, fall) delay (e.g.
      {!Spsta_netlist.Cell_library.gate_delays}; default: the unit delay
      {!Spsta_netlist.Cell_library.unit_gate_delay});
      [delay_sigma] applies on top of it.

      [domains] (default 1: fully sequential) evaluates each logic
      level's gates concurrently across that many OCaml domains via
      {!Spsta_engine.Propagate}.  Gates within a level never feed each
      other and each gate step is a pure function of its operands, so
      the result is bit-identical to the sequential traversal at every
      domain count.  Raises [Invalid_argument] if [domains < 1].

      [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
      verifies every per-net signal the engine produces — four-value
      probabilities forming a distribution, t.o.p. masses non-negative
      and conserved up to the backend's tracked truncation bound, finite
      moments — raising {!Spsta_engine.Propagate.Sanitize.Violation}
      naming the circuit, net, gate kind and level on the first
      violation.  When off, nothing is checked and results are
      bit-identical to a checked run that passes. *)

  val circuit : result -> Spsta_netlist.Circuit.t
  val signal : result -> Spsta_netlist.Circuit.id -> signal

  val update :
    ?delay_sigma:float ->
    ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
    ?mis:Spsta_logic.Mis_model.t ->
    ?max_enumerated_fanin:int ->
    ?check:bool ->
    result ->
    changed:Spsta_netlist.Circuit.id list ->
    spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
    result
  (** Incremental re-analysis (the block-based property the paper's
      intro highlights): recompute only the fanout cones of the
      [changed] nets — e.g. sources whose statistics changed, or gates
      whose delay model changed.  The result is identical to a full
      {!analyze} under the new parameters provided everything outside
      the cones is unchanged.  The input [result] is not mutated. *)

  val critical_endpoint : result -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id
  (** Endpoint with the largest normalised mean arrival in the given
      direction among endpoints whose transition probability is nonzero
      (falls back to the deepest endpoint if none transitions).
      Raises [Invalid_argument] if the circuit has no endpoints. *)

  val transition_stats : signal -> [ `Rise | `Fall ] -> float * float * float
  (** (mean, stddev, occurrence probability) of the chosen transition. *)
end
