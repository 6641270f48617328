(** Per-gate statistical criticality and slack — the analysis side of
    statistical gate sizing (Agarwal/Chopra/Blaauw).

    The criticality of a net is the probability that it lies on the
    statistically critical path: 1 at the chip level (some endpoint
    always sets the chip delay among transitioning endpoints), Clark
    tightness probabilities split it across endpoints, and a reverse
    topological pass distributes each gate's criticality over its fanin
    by per-input tightness.  A net feeding several critical fanouts
    accumulates their contributions, so criticalities along a fanout
    tree sum rather than average — the standard criticality calculus.

    The module is domain-agnostic: it consumes one normal settle-time
    arrival per net, with adapters from the SSTA result
    ({!of_ssta}) and from any SPSTA analyzer's per-direction transition
    statistics ({!of_transition_stats}) — moment and grid backends
    alike.  Both raise [Invalid_argument] if the circuit has no
    endpoints. *)

type t

val of_ssta : Spsta_ssta.Ssta.result -> t
(** Settle time per net = Clark MAX of the rise and fall arrivals. *)

val of_transition_stats :
  Spsta_netlist.Circuit.t ->
  stats:
    (Spsta_netlist.Circuit.id ->
    [ `Rise | `Fall ] ->
    float * float * float) ->
  t
(** Adapter for {!Spsta_core.Analyzer.Make.transition_stats}: [stats]
    returns (mean, stddev, occurrence probability) per direction.  The
    settle normal is the probability-weighted mixture moment-match of
    the two directions; nets that never transition get a point mass at
    time 0 and fall out of the criticality ranking naturally. *)

val circuit : t -> Spsta_netlist.Circuit.t

val chip_delay : t -> Spsta_dist.Normal.t
(** Clark MAX over all endpoint settle arrivals. *)

val quantile : t -> float -> float
(** Quantile of {!chip_delay} — the sizing objective at a percentile. *)

val criticality : t -> Spsta_netlist.Circuit.id -> float
(** P(net on the statistically critical path), in [0, 1] up to Clark
    approximation error (clamped). *)

val slack : t -> Spsta_netlist.Circuit.id -> float
(** Mean-based slack: required time (backward min over fanout, seeded
    with the chip-delay mean at endpoints) minus mean arrival. *)

val ranked : t -> (Spsta_netlist.Circuit.id * float) list
(** Gate-driven nets sorted by criticality, descending; ties break on
    net id (ascending) so the order is bit-deterministic. *)
