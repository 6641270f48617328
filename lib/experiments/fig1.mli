(** Fig. 1 of the paper: the actual chip timing performance distribution
    (Monte Carlo, per-run latest endpoint arrival) against the STA
    min/max bounds and the SSTA best/worst-case distributions, showing
    how the static methods relate to the real distribution. *)

type result = {
  circuit_name : string;
  mc_delays : float array;  (** per-run chip delay (runs with no transition are skipped) *)
  sta_earliest : float;
  sta_latest : float;
  ssta_best : Spsta_dist.Normal.t;  (** Clark-MIN over endpoint arrivals *)
  ssta_worst : Spsta_dist.Normal.t;  (** Clark-MAX over endpoint arrivals *)
  bounds_99 : float * float;
      (** (optimistic, pessimistic) 99%-quantile bounds of the STA-model
          chip arrival from the Frechet bounds engine (ref [1]) *)
}

val run :
  ?runs:int ->
  ?seed:int ->
  ?circuit:Spsta_netlist.Circuit.t ->
  case:Workloads.case ->
  unit ->
  result
(** Defaults: 10_000 runs, seed 42, the s344-class circuit.  Trial [i]
    draws from [Rng.stream ~seed i], as in {!Spsta_sim.Monte_carlo}. *)

val render : result -> string
(** Histogram of the MC distribution with the bounds and the best/worst
    normals overlaid as series. *)
