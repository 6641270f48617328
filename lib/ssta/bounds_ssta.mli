(** Bounds-based statistical STA (the paper's reference [1]:
    Agarwal/Blaauw/Zolotov/Vrudhula, DATE 2003): instead of assuming
    independence at reconvergent MAX operations, propagate *guaranteed*
    lower and upper bounds on each arrival-time cdf using the Frechet
    inequalities

      max(0, sum_i F_i(t) - (n-1))  <=  F_max(t)  <=  min_i F_i(t),

    which hold for any dependence among the inputs.  The true cdf of the
    STA arrival (the MAX-over-paths recursion with shared-path
    correlations) provably lies within the band; the width of the band
    is the price of not knowing the correlations.

    This engine works on the unit-delay timing graph in STA style (every
    source launches one transition); cdfs are tabulated on a uniform
    grid.

    Unlike {!Ssta} and {!Sta}, this analyzer has no flat
    struct-of-arrays fast path: its per-net state is a pair of cdf
    arrays spanning the whole time grid, whose length is chosen at
    analyze time from [dt] and the circuit depth — not a small fixed tuple of
    floats that could live in per-moment [floatarray] slots.  It rides
    the generic record engine ({!Spsta_engine.Propagate.run}), where
    array-valued states are natural. *)

type band = {
  times : float array;  (** grid points, ascending *)
  lower : float array;  (** guaranteed lower bound on the cdf *)
  upper : float array;  (** guaranteed upper bound on the cdf *)
}

type result

val analyze :
  ?dt:float ->
  ?input_arrival:Spsta_dist.Normal.t ->
  ?check:bool ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  result
(** [dt] (default 0.1) is the grid step; the grid ends 6 input sigmas
    past [depth] unit gate delays; [input_arrival] defaults to the
    standard normal.

    Traversal comes from {!Spsta_engine.Propagate}: [domains]
    (default 1) evaluates each logic level's gates across that many
    OCaml domains with results bit-identical to the sequential
    traversal.  Raises [Invalid_argument] if [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies both tabulated cdf bounds stay monotone probabilities and
    the Frechet band never inverts, raising
    {!Spsta_engine.Propagate.Sanitize.Violation} otherwise; when off
    nothing is checked. *)

val band : result -> Spsta_netlist.Circuit.id -> band

val chip_band : result -> band
(** Bounds on the cdf of the latest endpoint arrival. *)

val cdf_bounds : band -> float -> float * float
(** (lower, upper) bound on P(arrival <= t), step-interpolated. *)

val quantile_bounds : band -> float -> float * float
(** (optimistic, pessimistic) bound on the p-quantile of the arrival:
    the earliest grid time where the upper (resp. lower) cdf bound
    reaches p.  Raises [Invalid_argument] for p outside (0, 1) or when
    the lower bound never reaches p on the grid. *)
