(** Correlated process-parameter model (paper §1: die-to-die plus
    spatially correlated intra-die plus independent random variation).

    The die is divided into a [grid] x [grid] array of regions.  A gate's
    delay is

      d = nominal + sigma_global * G + sigma_spatial * S(region)
                  + sigma_random * R(gate)

    where G (one per die), S (one per region) and R (one per gate) are
    independent standard normals.  Two gates in the same region share G
    and S; gates in different regions share only G — the classic grid
    spatial-correlation model that principal-component SSTA targets. *)

type t

val create :
  ?sigma_global:float ->
  ?sigma_spatial:float ->
  ?sigma_random:float ->
  grid:int ->
  unit ->
  t
(** Nominal delay 1.0 (the paper's unit delay); sigmas default to 0.
    Raises [Invalid_argument] on non-positive [grid] or negative
    sigmas. *)

val grid : t -> int

val num_params : t -> int
(** 1 global + grid^2 spatial parameters (the shared, correlated ones;
    per-gate random terms are not counted). *)

val total_sigma : t -> float
(** Standard deviation of a single gate's delay:
    sqrt(sg^2 + ss^2 + sr^2). *)

val delay_correlation : t -> same_region:bool -> float
(** Correlation between two distinct gates' delays. *)

type placement
(** Assignment of every net to a die region. *)

val place : ?seed:int -> t -> Spsta_netlist.Circuit.t -> placement
(** Deterministic pseudo-random placement: gates spread over the grid by
    seeded hashing (levels bias columns so paths walk across the die). *)

val region : placement -> Spsta_netlist.Circuit.id -> int
(** Region index in [0, grid^2). *)

val gate_delay_canonical : t -> placement -> Spsta_netlist.Circuit.id -> Canonical.t
(** The gate's delay as a first-order canonical form over this model's
    parameter vector. *)

val sample_delays :
  Spsta_util.Rng.t -> t -> placement -> Spsta_netlist.Circuit.t ->
  (Spsta_netlist.Circuit.id -> float)
(** Draw one die: one global deviate, one per region, one per gate;
    returns the per-gate delay function for a simulator run. *)
