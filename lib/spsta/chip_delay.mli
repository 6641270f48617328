(** Chip-level delay distribution from SPSTA endpoint t.o.p. functions.

    The "actual timing performance distribution" of the paper's Fig. 1:
    the latest transition over all timing endpoints in a cycle.  Using
    the discretised t.o.p. backend and treating endpoints as independent
    (the engine's standing assumption), the chip-delay cdf is the product
    of per-endpoint settled-by-T probabilities — including the
    probability an endpoint does not transition at all, which is exactly
    what the MIN/MAX methods cannot represent. *)

type t

val compute :
  ?dt:float ->
  ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  t
(** [dt] is the grid step (default 0.05); [delay_rf] is each gate's
    (rise, fall) delay, as in {!Analyzer.S.analyze}. *)

val p_idle : t -> float
(** Probability no endpoint transitions during a cycle (the chip delay
    is undefined / trivially met). *)

val distribution : t -> Spsta_dist.Discrete.t
(** Mass over chip delays, total = 1 - p_idle. *)

val mean : t -> float
val stddev : t -> float

val yield_at : t -> float -> float
(** P(every endpoint settles by T): idle cycles count as meeting
    timing. *)

val clock_for_yield : t -> float -> float
(** Smallest grid time T with [yield_at t T >= target].
    Raises [Invalid_argument] if the target is outside (0, 1] or
    unreachable on the grid. *)

val endpoint_criticality : t -> (Spsta_netlist.Circuit.id * float) list
(** P(this endpoint sets the chip delay), grid-approximated, normalised
    over transitioning cycles; sorted descending. *)
