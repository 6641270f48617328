(** Two-value SPSTA (paper §3.2, eq. 8): t.o.p. propagation by WEIGHTED
    SUM with Boolean-difference weights, without separating rising and
    falling transitions.

    As §3.3 notes, this variant *includes glitches* (a rising and a
    falling input can both propagate) and misses the direction-dependent
    MIN/MAX spreading — it is kept as the simpler reference point that
    motivates the four-value extension, and as a transition-density
    engine for power estimation. *)

type net_top = {
  rate : float;  (** expected transitions per cycle, glitches included *)
  top : Spsta_dist.Mixture.t;  (** total weight = [rate] *)
}

type t

val compute :
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  t
(** Signal probabilities for the Boolean-difference weights come from
    eq. 5 with the specs' time-averaged one-probabilities. *)

val top : t -> Spsta_netlist.Circuit.id -> net_top

val toggling_rate : t -> Spsta_netlist.Circuit.id -> float
(** Eq. 6: this is exactly Najm's transition density. *)

val mean_arrival : t -> Spsta_netlist.Circuit.id -> float
(** Mean of the normalised t.o.p.; 0 for never-switching nets. *)

val stddev_arrival : t -> Spsta_netlist.Circuit.id -> float
