(** A wire-load model tying circuits to RC interconnect: each net gets a
    star RC tree whose segment length grows with the net's fanout (and,
    when a placement is given, with the die-region distance between
    driver and sinks), and the net's delay is its worst Elmore delay.

    This replaces the paper's zero-net-delay assumption with a loaded
    model so the timing engines can be exercised with realistic
    per-stage delays; see the bench interconnect ablation. *)

type params = {
  gate_delay : float;  (** intrinsic gate delay (the paper's unit delay) *)
  driver_resistance : float;
  r_per_unit : float;  (** wire resistance per unit length *)
  c_per_unit : float;  (** wire capacitance per unit length *)
  sink_cap : float;  (** per driven gate input *)
  unit_length : float;  (** base segment length per fanout branch *)
}

val default_params : params
(** Normalised so a fanout-1 net adds roughly 0.1 to the unit gate
    delay, growing superlinearly with fanout. *)

type t

val build :
  ?params:params ->
  ?placement:Spsta_variation.Param_model.placement * int ->
  Spsta_netlist.Circuit.t ->
  t
(** Builds every net's RC tree.  With [placement] (a placement and the
    model's grid size), segment lengths also scale with the Manhattan
    distance between driver and sink regions. *)

val net_delay : t -> Spsta_netlist.Circuit.id -> float
(** Worst Elmore delay of the net driven by this id (0 for loadless
    nets). *)

val stage_delay : t -> Spsta_netlist.Circuit.id -> float
(** Gate intrinsic delay plus its output net's Elmore delay.  The timing
    engines take it as the same delay in both directions:
    [~delay_rf:(fun g -> let d = stage_delay t g in (d, d))]. *)

val total_wire_capacitance : t -> float
